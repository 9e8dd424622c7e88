package cpu

// nlCap bounds the next-line predictions a core tracks for usefulness
// feedback; predictions made while the set is full go untracked.
const nlCap = 4096

// blockSet is a fixed-capacity set of block addresses: open addressing
// with linear probing over a power-of-two table kept at most half full,
// and backward-shift deletion, so there are no tombstones and an empty
// set has an all-zero table. Slots hold block+1, leaving 0 for "empty"
// (block addresses are addr/64, far below 2^64-1). Every demand access
// probes it, which costs less than a map lookup, and its table is
// allocated once and cleared when the core is reused.
type blockSet struct {
	slots []uint64
	n     int
}

// setBits sizes the table at 1<<setBits = 2*nlCap slots, so a full set
// is half occupied.
const (
	setBits  = 13
	setSlots = 1 << setBits
)

// home is block's first probe slot: the top setBits bits of a Fibonacci
// hash.
func (s *blockSet) home(block uint64) int {
	return int((block * 0x9E3779B97F4A7C15) >> (64 - setBits))
}

// reset empties the set, allocating the table on first use.
func (s *blockSet) reset() {
	if s.slots == nil {
		s.slots = make([]uint64, setSlots)
	} else if s.n > 0 {
		clear(s.slots)
	}
	s.n = 0
}

// find returns the slot holding block, or the empty slot that ends its
// probe sequence.
func (s *blockSet) find(block uint64) (int, bool) {
	want := block + 1
	for i := s.home(block); ; i = (i + 1) & (setSlots - 1) {
		switch s.slots[i] {
		case want:
			return i, true
		case 0:
			return i, false
		}
	}
}

// add inserts block unless the set already holds nlCap blocks.
func (s *blockSet) add(block uint64) {
	if s.n >= nlCap {
		return
	}
	if i, ok := s.find(block); !ok {
		s.slots[i] = block + 1
		s.n++
	}
}

// remove deletes block and reports whether it was present.
func (s *blockSet) remove(block uint64) bool {
	i, ok := s.find(block)
	if !ok {
		return false
	}
	// Backward-shift deletion: walk the cluster after the hole and move
	// back every entry whose home does not lie cyclically in (hole, j],
	// so no probe sequence is ever cut short.
	for j := (i + 1) & (setSlots - 1); s.slots[j] != 0; j = (j + 1) & (setSlots - 1) {
		h := s.home(s.slots[j] - 1)
		if (j-h)&(setSlots-1) >= (j-i)&(setSlots-1) {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
	s.n--
	return true
}
