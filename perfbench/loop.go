package main

import (
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachemind/internal/engine"
	"cachemind/internal/histogram"
)

// reply is one answered (or failed) ask as the client saw it.
type reply struct {
	text string
	tier engine.CacheTier
	// serverNS is the engine's own wall time for the ask
	// (engine.Response.Timings.Total; total_ms over the wire), and
	// pipelineNS the part of it spent in retrieval and generation.
	serverNS, pipelineNS int64
	err                  error
}

// asker answers one stream item on behalf of client c.
type asker interface {
	ask(c int, it item) reply
}

// inprocAsker calls engine.Ask directly.
type inprocAsker struct {
	eng      *engine.Engine
	texts    []string
	sessions []string
}

func (d *inprocAsker) ask(_ int, it item) reply {
	resp, err := d.eng.Ask(context.Background(), engine.Request{
		SessionID: d.sessions[it.session],
		Question:  d.texts[it.q],
	})
	t := resp.Timings
	return reply{text: resp.Text, tier: resp.Tier, serverNS: int64(t.Total), pipelineNS: int64(t.Retrieval + t.Generation), err: err}
}

// Tier indexes for the per-tier tallies.
const (
	tierExact = iota
	tierSemantic
	tierCold
	numTiers
)

func tierIndex(t engine.CacheTier) int {
	switch t {
	case engine.TierExact:
		return tierExact
	case engine.TierSemantic:
		return tierSemantic
	}
	return tierCold
}

// tally is one phase's outcome.
type tally struct {
	asks, failed int64
	tiers        [numTiers]int64
	semAgree     int64
	// lat holds every ask's latency in a fixed-size histogram, so the
	// benchmark's memory does not grow with the ask rate.
	lat histogram.Snapshot
	// Traced phases only: the engine's summed wall time (serverNS) and
	// each ask's latency outside the engine (wire): over HTTP, the wire
	// cost.
	serverNS int64
	wire     histogram.Snapshot
	elapsed  time.Duration
	firstErr string
}

func (t *tally) merge(o *tally) {
	t.asks += o.asks
	t.elapsed += o.elapsed
	t.failed += o.failed
	t.semAgree += o.semAgree
	for i := range t.tiers {
		t.tiers[i] += o.tiers[i]
	}
	addSnapshot(&t.lat, o.lat)
	t.serverNS += o.serverNS
	addSnapshot(&t.wire, o.wire)
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// addSnapshot folds histogram snapshot b into a.
func addSnapshot(a *histogram.Snapshot, b histogram.Snapshot) {
	if a.Counts == nil {
		a.Counts = make([]uint64, len(b.Counts))
	}
	for i, c := range b.Counts {
		a.Counts[i] += c
	}
	a.Count += b.Count
	a.Sum += b.Sum
	a.Max = max(a.Max, b.Max)
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (t *tally) answered() int64 { return t.asks - t.failed }

func (t *tally) qps() float64 { return float64(t.answered()) / t.elapsed.Seconds() }

// runPhase runs the closed loop — one goroutine per client, each sending its
// next ask only after the previous reply — until dur has elapsed, and
// merges their tallies. Clients take stream positions from the shared
// cursor, so the stream is asked in its generated order whatever each
// client's pace, and the next phase continues where this one stopped.
// rec, when non-nil, records a root span per ask.
func runPhase(d asker, stream []item, ref *reference, cursor *atomic.Int64, dur time.Duration, rec *recorder) tally {
	parts := make([]tally, clients)
	var lat, wire [clients]*histogram.Histogram
	for c := range clients {
		lat[c], wire[c] = histogram.New(), histogram.New()
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runClient(c, d, stream, ref, cursor, deadline, &parts[c], lat[c], wire[c], rec)
		}()
	}
	wg.Wait()
	var t tally
	t.elapsed = time.Since(start)
	for c := range parts {
		parts[c].lat, parts[c].wire = lat[c].Snapshot(), wire[c].Snapshot()
		t.merge(&parts[c])
	}
	return t
}

func runClient(c int, d asker, stream []item, ref *reference, cursor *atomic.Int64, deadline time.Time, t *tally, lat, wire *histogram.Histogram, rec *recorder) {
	for {
		pos := cursor.Add(1) - 1
		it := stream[pos%int64(len(stream))]
		t0 := time.Now()
		r := d.ask(c, it)
		t1 := time.Now()
		lat.Observe(t1.Sub(t0))
		t.asks++
		switch ok, agree := ref.check(it, r.text, r.tier); {
		case r.err != nil:
			t.failed++
			if t.firstErr == "" {
				t.firstErr = r.err.Error()
			}
		case !ok:
			t.failed++
			if t.firstErr == "" {
				t.firstErr = fmt.Sprintf("answer check failed at stream position %d (tier %s)", pos, r.tier)
			}
		default:
			t.tiers[tierIndex(r.tier)]++
			if agree {
				t.semAgree++
			}
		}
		if rec != nil && r.err == nil {
			rec.add(c, rootSpan{pos: pos, start: t0, end: t1, tier: r.tier, serverNS: r.serverNS, pipelineNS: r.pipelineNS, text: r.text})
			t.serverNS += r.serverNS
			wire.Observe(t1.Sub(t0) - time.Duration(r.serverNS))
		}
		if !t1.Before(deadline) {
			return
		}
	}
}

// heapAllocs returns this process's cumulative heap allocations: objects
// (including tiny allocations) and bytes.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()
}

// peakRSSMB reads VmHWM (peak resident set size) of a process from
// /proc; pid "self" is this process.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
