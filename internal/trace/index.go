package trace

import "math/bits"

// index finds a held op state by one of its strings — its ID, or, for
// the guess index, its key — by open addressing over state numbers:
// linear probing, and backward-shift deletion, so recycling states
// leaves no tombstones. It grows, never shrinks, and doubles before it
// is 3/4 full, so past 16 slots it holds under three per state indexed
// at its peak.
type index struct {
	slots []int32 // state number + 1; 0 is empty
	n     int
	shift uint8 // 64 - log2(len(slots))
	byKey bool  // indexed by the state's key rather than its ID
}

func (x *index) home(s string) int {
	return int((fnv1a(s) * 0x9e3779b97f4a7c15) >> x.shift)
}

// name is the string state num is indexed by in x. Caller holds t.mu.
func (t *Tracer) name(x *index, num int32) string {
	if x.byKey {
		return t.state(num).key
	}
	return t.state(num).id
}

// find returns the position holding s and true, or where s would go and
// false. Caller holds t.mu.
func (t *Tracer) find(x *index, s string) (int, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	m := len(x.slots) - 1
	for i := x.home(s); ; i = (i + 1) & m {
		if v := x.slots[i]; v == 0 || t.name(x, v-1) == s {
			return i, v != 0
		}
	}
}

// insert points s at state num, replacing what s pointed at before.
// Caller holds t.mu.
func (t *Tracer) insert(x *index, s string, num int32) {
	if 4*(x.n+1) > 3*len(x.slots) {
		old := x.slots
		size := max(16, 2*len(old))
		x.slots, x.shift = make([]int32, size), uint8(64-bits.TrailingZeros(uint(size)))
		for _, v := range old {
			if v != 0 {
				i, _ := t.find(x, t.name(x, v-1))
				x.slots[i] = v
			}
		}
	}
	i, found := t.find(x, s)
	if !found {
		x.n++
	}
	x.slots[i] = num + 1
}

// remove empties position i, then shifts back each entry of the probe
// run after it that may now sit closer to its home. Caller holds t.mu.
func (t *Tracer) remove(x *index, i int) {
	m := len(x.slots) - 1
	x.slots[i] = 0
	x.n--
	for j := (i + 1) & m; x.slots[j] != 0; j = (j + 1) & m {
		if h := x.home(t.name(x, x.slots[j]-1)); (j-h)&m >= (j-i)&m {
			x.slots[i], x.slots[j] = x.slots[j], 0
			i = j
		}
	}
}
