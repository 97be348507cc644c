package scheme

import "atscale/internal/arch"

// assocDir is a deterministic set-associative directory keyed by an
// arbitrary uint64 block key with an arch.PAddr payload — the shared
// structure behind the Victima PTE-block directory (VA-block -> PT page)
// and the die-stacked DRAM cache's tag array (PA-block presence). LRU
// stamps use a local clock; stamp 0 marks an invalid way.
type assocDir struct {
	keys  []uint64
	base  []arch.PAddr
	stamp []uint64
	ways  int
	sets  uint64
	clock uint64
}

// newAssocDir builds a directory of at least `entries` ways total split
// into sets of `ways`. The set count is rounded up to keep geometry
// exact.
func newAssocDir(entries, ways int) *assocDir {
	if entries < ways {
		entries = ways
	}
	sets := uint64((entries + ways - 1) / ways)
	n := sets * uint64(ways)
	return &assocDir{
		keys:  make([]uint64, n),
		base:  make([]arch.PAddr, n),
		stamp: make([]uint64, n),
		ways:  ways,
		sets:  sets,
	}
}

// lookup finds key's way, refreshing its LRU stamp on hit.
func (d *assocDir) lookup(key uint64) (arch.PAddr, bool) {
	d.clock++
	s := (key % d.sets) * uint64(d.ways)
	for i := s; i < s+uint64(d.ways); i++ {
		if d.stamp[i] != 0 && d.keys[i] == key {
			d.stamp[i] = d.clock
			return d.base[i], true
		}
	}
	return 0, false
}

// insert installs (key, base), evicting the set's LRU way if needed.
func (d *assocDir) insert(key uint64, base arch.PAddr) {
	d.clock++
	s := (key % d.sets) * uint64(d.ways)
	victim, oldest := s, uint64(1)<<63
	for i := s; i < s+uint64(d.ways); i++ {
		if d.stamp[i] != 0 && d.keys[i] == key {
			d.base[i], d.stamp[i] = base, d.clock
			return
		}
		if d.stamp[i] < oldest {
			victim, oldest = i, d.stamp[i]
		}
	}
	d.keys[victim], d.base[victim], d.stamp[victim] = key, base, d.clock
}

// invalidate drops key's way if present.
func (d *assocDir) invalidate(key uint64) {
	s := (key % d.sets) * uint64(d.ways)
	for i := s; i < s+uint64(d.ways); i++ {
		if d.stamp[i] != 0 && d.keys[i] == key {
			d.keys[i], d.base[i], d.stamp[i] = 0, 0, 0
		}
	}
}

// flush empties the directory, keeping the LRU clock running (an OS
// flush does not rewind time).
func (d *assocDir) flush() {
	clear(d.keys)
	clear(d.base)
	clear(d.stamp)
}

// reset returns the directory to its just-constructed state.
func (d *assocDir) reset() {
	d.flush()
	d.clock = 0
}

// live returns the number of valid ways (test/debug helper).
func (d *assocDir) live() int {
	n := 0
	for _, s := range d.stamp {
		if s != 0 {
			n++
		}
	}
	return n
}
