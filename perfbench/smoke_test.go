package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cachemind/internal/engine"
)

// tinyAccesses keeps the smoke test's stores small.
const tinyAccesses = 3000

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// smoke test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cachemindd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cachemindd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build cachemindd: %v\n%s", err, out)
	}
	return bin
}

// TestSpecMatchesClaims pins BENCHMARK.json and claims.json to the same
// workloads and metrics, units included: the benchmark prints and
// reports what claims.json lists.
func TestSpecMatchesClaims(t *testing.T) {
	spec := readSpec(t)
	claims, err := loadClaims()
	if err != nil {
		t.Fatal(err)
	}
	var specW, claimW, code []string
	for _, w := range spec.Workloads {
		specW = append(specW, w.Name)
	}
	for _, w := range claims.Workloads {
		claimW = append(claimW, w.Name)
	}
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if strings.Join(specW, ",") != strings.Join(claimW, ",") || strings.Join(specW, ",") != strings.Join(code, ",") {
		t.Errorf("workloads differ: BENCHMARK.json %v, claims.json %v, code %v", specW, claimW, code)
	}
	check := func(kind string, names, units []string, rows []claim) {
		if len(names) != len(rows) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, claims.json %d", kind, len(names), len(rows))
			return
		}
		for i, c := range rows {
			if c.Metric != names[i] || c.Unit != units[i] {
				t.Errorf("%s #%d: BENCHMARK.json %s [%s], claims.json %s [%s]", kind, i, names[i], units[i], c.Metric, c.Unit)
			}
		}
	}
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", names, units, claims.EndToEnd)
	names, units = nil, nil
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", names, units, claims.PerLayer)
}

// TestSmoke runs every workload, untraced and traced, at a tiny size and
// checks that every metric BENCHMARK.json names is reported with its
// unit, printed by name, and that every answer passed its check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cachemindd and runs every workload")
	}
	spec := readSpec(t)
	bin := buildDaemon(t)
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			name := w.name + "/untraced"
			want := spec.EndToEnd
			if trace == 1 {
				name, want = w.name+"/traced", spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(options{
					workload: w.name, seed: 7, seconds: 1, trace: trace,
					daemon: bin, out: t.TempDir(), accesses: tinyAccesses,
					setupReps: 2, warmup: 200 * time.Millisecond,
				}, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(out.String(), " "+m.Name+" ") {
						t.Errorf("metric %s not printed by name", m.Name)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("result does not encode: %v", err)
				}
			})
		}
	}
}

// corruptingAsker alters every fifth answer it relays.
type corruptingAsker struct {
	inner     asker
	n         atomic.Int64
	corrupted atomic.Int64
}

func (d *corruptingAsker) ask(c int, it item) reply {
	r := d.inner.ask(c, it)
	if d.n.Add(1)%5 == 0 {
		r.text += "!"
		d.corrupted.Add(1)
	}
	return r
}

// TestAnswerCheckCatchesCorruption proves the answer check can fail: a
// corrupted answer fails it, directly and inside the closed loop.
func TestAnswerCheckCatchesCorruption(t *testing.T) {
	store, err := engine.OpenStore("", tinyAccesses, storeSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloadByName("hot-sessions")
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPool(store, w)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := buildStream(p, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildReference(store, w, p)
	if err != nil {
		t.Fatal(err)
	}
	it := item{q: 3, origin: 3}
	if ok, _ := ref.check(it, ref.answers[3], engine.TierExact); !ok {
		t.Fatal("the reference answer fails its own check")
	}
	if ok, _ := ref.check(it, ref.answers[3]+" ", engine.TierCold); ok {
		t.Error("a corrupted cold answer passed the check")
	}
	if ok, _ := ref.check(it, ref.answers[4], engine.TierExact); ok && ref.answers[4] != ref.answers[3] {
		t.Error("another question's answer passed an exact check")
	}
	if ok, _ := ref.check(it, "not an answer", engine.TierSemantic); ok {
		t.Error("a semantic serve outside the reference answers passed the check")
	}

	eng, err := engine.New(w.engineConfig(store))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d := &corruptingAsker{inner: &inprocAsker{eng: eng, texts: p.texts, sessions: sessionNames(w.sessions)}}
	var cursor atomic.Int64
	tl := runPhase(d, stream, ref, &cursor, 100*time.Millisecond, nil)
	if tl.failed == 0 || tl.failed != d.corrupted.Load() {
		t.Fatalf("%d asks failed the check, %d answers were corrupted", tl.failed, d.corrupted.Load())
	}
}
