package san

import "slices"

// routeEntry is one destination's routing: the primary and backup output
// ports, each stored as port+1 so the zero entry means "no route".
type routeEntry struct{ primary, backup uint16 }

// maxPorts bounds a switch's port count so port+1 fits a routeEntry field.
const maxPorts = 1<<16 - 1

// routeRun holds the entries of the contiguous destination ids
// [base, base+len(ents)).
type routeRun struct {
	base NodeID
	ents []routeEntry
}

func (r *routeRun) end() NodeID { return r.base + NodeID(len(r.ents)) }

// routeTable is a switch's routing table: a few dense runs of entries,
// sorted by base and disjoint. Fabric ids come in contiguous blocks (hosts,
// stores, switches), so a lookup scans two or three runs and indexes one,
// with no hashing.
type routeTable struct{ runs []routeRun }

// routeGap is the widest stretch of unset ids a write bridges to join two
// runs rather than keeping them apart.
const routeGap = 64

// find returns dst's entry, or nil when no run covers dst.
func (t *routeTable) find(dst NodeID) *routeEntry {
	for i := range t.runs {
		r := &t.runs[i]
		// One unsigned compare covers both ends: ids below base wrap high.
		if off := uint(dst - r.base); off < uint(len(r.ents)) {
			return &r.ents[off]
		}
	}
	return nil
}

// get returns dst's entry, or the zero entry when dst has no route.
func (t *routeTable) get(dst NodeID) routeEntry {
	if e := t.find(dst); e != nil {
		return *e
	}
	return routeEntry{}
}

// slot returns dst's entry for writing. An id no run covers gets a run of
// its own, joined with any neighbour close enough.
func (t *routeTable) slot(dst NodeID) *routeEntry {
	if e := t.find(dst); e != nil {
		return e
	}
	i := t.reserve(dst, 1)
	if i+1 < len(t.runs) {
		t.join(i)
	}
	if i > 0 && t.join(i-1) {
		i--
	}
	return &t.runs[i].ents[dst-t.runs[i].base]
}

// join merges runs i and i+1 when at most routeGap ids lie between them.
func (t *routeTable) join(i int) bool {
	a, b := &t.runs[i], t.runs[i+1]
	gap := b.base - a.end()
	if gap < 0 || gap > routeGap { // negative only on id overflow
		return false
	}
	a.ents = append(a.ents, make([]routeEntry, gap)...)
	a.ents = append(a.ents, b.ents...)
	t.runs = slices.Delete(t.runs, i+1, i+2)
	return true
}

// reserve makes ids [base, base+n) one run, folding in the entries of any
// run it overlaps, so later writes in the range are plain index stores. It
// returns the run's index.
func (t *routeTable) reserve(base NodeID, n int) int {
	end := base + NodeID(n)
	lo := 0
	for lo < len(t.runs) && t.runs[lo].end() <= base {
		lo++
	}
	hi := lo
	for hi < len(t.runs) && t.runs[hi].base < end {
		hi++
	}
	if lo < hi {
		base = min(base, t.runs[lo].base)
		end = max(end, t.runs[hi-1].end())
	}
	r := routeRun{base: base, ents: make([]routeEntry, end-base)}
	for _, old := range t.runs[lo:hi] {
		copy(r.ents[old.base-base:], old.ents)
	}
	t.runs = slices.Replace(t.runs, lo, hi, r)
	return lo
}
