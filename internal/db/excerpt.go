package db

import (
	"fmt"
	"slices"
	"strings"
)

// RenderExcerpt renders one record as the trace excerpt of the paper's
// Figure 2: the access tuple (with the set id in binary), the resident
// cache lines, the recent access history, the policy's per-line
// eviction scores, and the disassembly context of the PC. Records
// carrying snapshots (every SnapshotEvery-th record) render fully;
// others render the always-present fields.
func (f *Frame) RenderExcerpt(i int) string {
	pc, snap := f.pc[i], f.snapshot(i)
	var b strings.Builder

	b.WriteString("Cache Access Trace\n")
	fmt.Fprintf(&b, "  PC: 0x%x\n", pc)
	fmt.Fprintf(&b, "  Address: 0x%x\n", f.addr[i])
	fmt.Fprintf(&b, "  Set ID: 0b%b\n", int(f.set[i]))
	fmt.Fprintf(&b, "  Evict: %v\n", f.evictedAddr[i] != 0)

	if len(snap.resident) > 0 {
		b.WriteString("Cache Lines\n")
		for _, l := range snap.resident {
			fmt.Fprintf(&b, "  {\"0x%x\", \"0x%x\"}\n", l.Addr, l.PC)
		}
	}
	if len(snap.history) > 0 {
		b.WriteString("Access History\n")
		for _, l := range snap.history {
			fmt.Fprintf(&b, "  {\"0x%x\", \"0x%x\"}\n", l.Addr, l.PC)
		}
	}
	if len(snap.scores) > 0 {
		b.WriteString("Cache Line Scores\n  ")
		parts := make([]string, 0, len(snap.scores))
		for w, s := range snap.scores {
			addr := uint64(0)
			if w < len(snap.resident) {
				addr = snap.resident[w].Addr
			}
			parts = append(parts, fmt.Sprintf("{%d, %.0f}", addr, s))
		}
		b.WriteString(strings.Join(parts, ", ") + "\n")
	}

	fmt.Fprintf(&b, "Assembly (%s)\n", f.syms.NameAt(pc))
	for _, line := range strings.Split(f.syms.Assembly(pc), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

// FirstSnapshotRow returns the index of the first record at or after
// `from` that carries resident-line snapshots, or -1 when none exists —
// a convenience for excerpt rendering.
func (f *Frame) FirstSnapshotRow(from int) int {
	if from >= f.Len() {
		return -1
	}
	k, _ := slices.BinarySearch(f.snapRows, int32(max(from, 0)))
	for ; k < len(f.snapRows); k++ {
		if len(f.snaps[k].resident) > 0 {
			return int(f.snapRows[k])
		}
	}
	return -1
}
