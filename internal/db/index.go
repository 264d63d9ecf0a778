package db

import (
	"cmp"
	"maps"
	"slices"
)

// index is a CSR (compressed sparse row) index over one column: the
// rows whose key is keys[k] are rows[off[k]:off[k+1]], ascending. keys
// are distinct and ascending, so a lookup is a binary search and a
// group is a subslice of one shared row array.
type index[K cmp.Ordered] struct {
	keys []K
	off  []int32 // len(keys)+1 offsets into rows
	rows []int32
}

// newIndex indexes col by counting sort: one pass counts each key's
// rows, a prefix sum turns the counts into offsets, and a second pass
// places every row, so each group comes out in ascending row order.
// The key-to-group map holds one entry per distinct key, not per row.
func newIndex[K cmp.Ordered](col []K) index[K] {
	group := map[K]int32{}
	for _, k := range col {
		group[k] = 0
	}
	keys := slices.Sorted(maps.Keys(group))
	for g, k := range keys {
		group[k] = int32(g)
	}
	off := make([]int32, len(keys)+1)
	ids := make([]int32, len(col))
	for i, k := range col {
		ids[i] = group[k]
		off[ids[i]+1]++
	}
	for g := 1; g < len(off); g++ {
		off[g] += off[g-1]
	}
	next := slices.Clone(off[:len(keys)])
	rows := make([]int32, len(col))
	for i, g := range ids {
		rows[next[g]] = int32(i)
		next[g]++
	}
	return index[K]{keys: keys, off: off, rows: rows}
}

// group returns the rows of key position g (shared; capacity-limited
// so an append cannot clobber the next group).
func (x *index[K]) group(g int) []int32 {
	lo, hi := x.off[g], x.off[g+1]
	return x.rows[lo:hi:hi]
}

// lookup returns the rows whose key is k, nil when k is absent.
func (x *index[K]) lookup(k K) []int32 {
	g, ok := slices.BinarySearch(x.keys, k)
	if !ok {
		return nil
	}
	return x.group(g)
}

// addrIndex refines a PC index by line address. Its rows array is the
// PC index's, with each PC's segment re-sorted by (address, row); the
// address keys of the PC at position p are keys[start[p]:start[p+1]],
// ascending, and key k's rows are rows[off[k]:off[k+1]].
type addrIndex struct {
	index[uint64]
	start []int32 // len(PC keys)+1 offsets into keys
}

func newAddrIndex(byPC *index[uint64], addr []uint64) addrIndex {
	x := addrIndex{start: make([]int32, len(byPC.keys)+1)}
	x.rows = slices.Clone(byPC.rows)
	for p := range byPC.keys {
		lo := byPC.off[p]
		seg := x.rows[lo:byPC.off[p+1]]
		slices.SortFunc(seg, func(a, b int32) int {
			return cmp.Or(cmp.Compare(addr[a], addr[b]), cmp.Compare(a, b))
		})
		x.start[p] = int32(len(x.keys))
		for k, r := range seg {
			if k == 0 || addr[r] != addr[seg[k-1]] {
				x.keys = append(x.keys, addr[r])
				x.off = append(x.off, lo+int32(k))
			}
		}
	}
	x.start[len(byPC.keys)] = int32(len(x.keys))
	// The appends over-allocate by up to 2x; keep exact-size copies.
	x.keys = slices.Clone(x.keys)
	x.off = slices.Clone(append(x.off, int32(len(x.rows))))
	return x
}

// lookup returns the rows of the PC at position p whose line address
// is addr, nil when there are none.
func (x *addrIndex) lookup(p int, addr uint64) []int32 {
	lo, hi := int(x.start[p]), int(x.start[p+1])
	k, ok := slices.BinarySearch(x.keys[lo:hi], addr)
	if !ok {
		return nil
	}
	return x.group(lo + k)
}
