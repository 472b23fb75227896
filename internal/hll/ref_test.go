package hll

// Single-counter operations that only tests use. Union runs the
// production fold: one Step over a two-counter bank.

// Union folds other into c (register-wise max) and reports whether any
// register changed. Counters must have equal size. It runs one Step
// over a bank holding c and then other, listing c with other as its
// one source, so it takes the kernel the HyperANF engine runs.
func (c Counter) Union(other Counter) bool {
	if len(c.w) != len(other.w) {
		panic("hll: union of differently sized counters")
	}
	w := len(c.w)
	cur := append(append(make([]uint64, 0, 2*w), c.w...), other.w...)
	next := make([]uint64, 2*w)
	var k Batch
	k.Reset(int(c.b), 2, 1)
	k.Add([]int32{1})
	k.Add(nil)
	grown := k.Step(next, cur, []int32{0}, nil)
	copy(c.w, next[:w])
	return len(grown) > 0
}

// CopyFrom overwrites c's registers with src's. Counters must have
// equal size.
func (c Counter) CopyFrom(src Counter) {
	if len(c.w) != len(src.w) {
		panic("hll: copy between differently sized counters")
	}
	copy(c.w, src.w)
}
