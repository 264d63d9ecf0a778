package db

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"cachemind/internal/policy"
	"cachemind/internal/replay"
	"cachemind/internal/trace"
	"cachemind/internal/workload"
)

// rawReplays reruns the build's replays outside Build and returns each
// frame's records as replay.Run produced them, keyed like the store.
func rawReplays(t *testing.T, cfg BuildConfig) map[string][]trace.Record {
	t.Helper()
	cfg = cfg.withDefaults()
	out := map[string][]trace.Record{}
	for _, w := range cfg.Workloads {
		accs := w.Generate(cfg.AccessesPerTrace, cfg.Seed)
		train := w.Generate(cfg.AccessesPerTrace/2, cfg.Seed+1)
		for _, polName := range cfg.Policies {
			pol, err := policy.New(polName, cfg.LLC, policy.Options{
				Seed: cfg.Seed, Oracle: trace.NextUseOracle(accs), Train: train,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := replay.Run(accs, cfg.LLC, pol, replay.Options{SnapshotEvery: cfg.SnapshotEvery})
			out[Key(w.Name(), polName)] = res.Records
		}
	}
	return out
}

// TestColumnRoundTrip pins the columnar layout to the record stream it
// stores: every row reassembles to exactly the record replay.Run made,
// and the persisted form is the version-1 record format byte for byte.
func TestColumnRoundTrip(t *testing.T) {
	cfg := parallelTestConfig(0)
	store, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw := rawReplays(t, cfg)

	want := storeDTO{Version: persistVersion}
	for _, key := range store.Keys() {
		f, _ := store.FrameByKey(key)
		recs := raw[key]
		if f.Len() != len(recs) {
			t.Fatalf("%s: %d rows, replay produced %d records", key, f.Len(), len(recs))
		}
		snaps := 0
		for i, r := range recs {
			if got := f.Record(i); !reflect.DeepEqual(got, r) {
				t.Fatalf("%s: row %d reassembles to\n%+v\nwant\n%+v", key, i, got, r)
			}
			if r.ResidentLines != nil {
				snaps++
			}
		}
		if snaps == 0 {
			t.Fatalf("%s: no snapshot rows exercised", key)
		}
		want.Frames = append(want.Frames, frameDTO{
			Workload: f.Workload, Policy: f.Policy, Records: recs,
			Summary: f.Summary, Description: f.Description,
		})
	}

	var wantBytes, saved bytes.Buffer
	if err := gob.NewEncoder(&wantBytes).Encode(want); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), wantBytes.Bytes()) {
		t.Fatalf("Save differs from the version-1 record encoding: %d vs %d bytes", saved.Len(), wantBytes.Len())
	}

	loaded, err := Load(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
		t.Fatalf("Save→Load→Save changed the bytes: %d vs %d", resaved.Len(), saved.Len())
	}
}

// TestNewFrameRejectsUnstorableRecords covers the records the columnar
// layout cannot hold exactly: Load must fail rather than alter them.
func TestNewFrameRejectsUnstorableRecords(t *testing.T) {
	syms := workload.MCF.Symbols()
	for _, c := range []struct {
		name string
		rec  trace.Record
		want string
	}{
		{"seq", trace.Record{Seq: 7}, "sequence number"},
		{"set", trace.Record{Set: -1}, "set"},
		{"miss type", trace.Record{MissType: 300}, "miss type"},
	} {
		_, err := NewFrame("mcf", "lru", []trace.Record{c.rec}, syms, FrameSummary{}, "")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestIndexesMatchScan checks every CSR index against a full scan of
// the reassembled records: same row sets, ascending, for every key.
func TestIndexesMatchScan(t *testing.T) {
	s := testStore(t)
	f, _ := s.Frame("astar", "parrot")
	byPC := map[uint64][]int32{}
	byPCAddr := map[[2]uint64][]int32{}
	bySet := map[int][]int32{}
	for i := 0; i < f.Len(); i++ {
		r := f.Record(i)
		byPC[r.PC] = append(byPC[r.PC], int32(i))
		byPCAddr[[2]uint64{r.PC, r.Addr}] = append(byPCAddr[[2]uint64{r.PC, r.Addr}], int32(i))
		bySet[r.Set] = append(bySet[r.Set], int32(i))
	}
	if len(f.PCs()) != len(byPC) || len(f.Sets()) != len(bySet) {
		t.Fatalf("distinct keys: %d PCs, %d sets; scan found %d, %d", len(f.PCs()), len(f.Sets()), len(byPC), len(bySet))
	}
	for pc, rows := range byPC {
		if got := f.RowsForPC(pc); !reflect.DeepEqual(got, rows) {
			t.Fatalf("RowsForPC(%#x) = %d rows, scan %d", pc, len(got), len(rows))
		}
	}
	for k, rows := range byPCAddr {
		// Unaligned addresses resolve to their line.
		if got := f.RowsForPCAddr(k[0], k[1]+uint64(trace.LineSize-1)); !reflect.DeepEqual(got, rows) {
			t.Fatalf("RowsForPCAddr(%#x, %#x) = %v, scan %v", k[0], k[1], got, rows)
		}
	}
	for set, rows := range bySet {
		if got := f.RowsForSet(set); !reflect.DeepEqual(got, rows) {
			t.Fatalf("RowsForSet(%d) = %d rows, scan %d", set, len(got), len(rows))
		}
	}
	if f.RowsForPC(0xdeadbeef) != nil || f.RowsForPCAddr(0xdeadbeef, 0) != nil || f.RowsForSet(-1) != nil {
		t.Error("absent keys must return nil")
	}
	pc := f.PCs()[0]
	if f.RowsForPCAddr(pc, 0x1) != nil {
		t.Error("absent address under a present PC must return nil")
	}
}
