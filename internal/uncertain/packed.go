package uncertain

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// GroupWidth is the most worlds one SampleGroup call packs: one bit
// per world in a machine word.
const GroupWidth = 64

// PackedWorlds is a group of up to GroupWidth consecutive possible
// worlds of one uncertain graph, one bit per world: bit j of Masks[p]
// is set exactly when candidate pair p is present in world j of the
// group. It carries the sampler's template too, so a walker can visit
// a vertex's candidate slots once and test each against every world
// of the group with one AND.
type PackedWorlds struct {
	// Width is the number of worlds in the group (1..GroupWidth); every
	// mask bit at or above Width is zero.
	Width int
	// Masks holds one presence mask per candidate pair.
	Masks []uint64
	// Off, Nbr and Pair are the sampling template, shared and
	// read-only: vertex v's candidate slots are Off[v] <= k < Off[v+1],
	// and slot k joins v to Nbr[k] through pair Pair[k], sorted by Nbr.
	Off  []int64
	Nbr  []int32
	Pair []int32
}

// SampleGroup draws the worlds SampleSeed(seeds[j]) draws, for every
// j < len(seeds) <= GroupWidth, and packs them: world j is bit j of
// every mask. Each world costs SampleSeed's coin pass, with the same
// coins in the same order, and no materialization. The pass leaves
// one bool per pair; eight of them pack into a byte with one multiply,
// a world's presence row fills one bit per pair, and a 64×64 bit
// transpose per 64 pairs turns the group's rows into per-pair masks.
// The result aliases the sampler and is valid until the next
// SampleGroup call.
func (s *Sampler) SampleGroup(seeds []int64) *PackedWorlds {
	width := len(seeds)
	if width < 1 || width > GroupWidth {
		panic(fmt.Sprintf("uncertain: SampleGroup of %d worlds, want 1..%d", width, GroupWidth))
	}
	if s.packed.Masks == nil {
		s.packed = PackedWorlds{
			Masks: make([]uint64, len(s.present))[:len(s.g.pairP)],
			Off:   s.toff,
			Nbr:   s.tnbr,
			Pair:  s.tpair,
		}
	}
	s.packed.Width = width
	words := len(s.present) / GroupWidth
	// Before the transpose, rows[64c+j] holds pairs 64c..64c+63 of
	// world j; after it, rows[64c+i] is the mask of pair 64c+i.
	rows := s.packed.Masks[:len(s.present)]
	// Go stores a bool as one byte holding 0 or 1.
	bytes := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s.present))), len(s.present))
	for j, seed := range seeds {
		s.drawSeed(seed)
		for c := 0; c < words; c++ {
			rows[c*GroupWidth+j] = packBools(bytes[c*GroupWidth : (c+1)*GroupWidth])
		}
	}
	for c := 0; c < words; c++ {
		block := (*[GroupWidth]uint64)(rows[c*GroupWidth : (c+1)*GroupWidth])
		clear(block[width:])
		transpose64(block)
	}
	return &s.packed
}

// newPresent returns a presence buffer for pairs pairs, padded with
// false entries to a whole number of GroupWidth-pair words.
func newPresent(pairs int) []bool {
	return make([]bool, (pairs+GroupWidth-1)/GroupWidth*GroupWidth)
}

// packBools packs 64 bytes, each 0 or 1, into one word: bit i is b[i].
// The multiply gathers the low bit of each of eight bytes into the top
// byte of the product: byte i's bit lands at position 56+i, and no two
// partial products overlap, so nothing carries.
func packBools(b []byte) uint64 {
	_ = b[63]
	var w uint64
	for g := 0; g < 8; g++ {
		x := binary.LittleEndian.Uint64(b[8*g:])
		w |= (x * 0x0102040810204080) >> 56 << (8 * g)
	}
	return w
}

// transpose64 transposes a 64×64 bit matrix in place: bit c of a[r]
// moves to bit r of a[c]. Round j swaps the off-diagonal j×j blocks of
// every 2j×2j block (Hacker's Delight §7–3).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j, m = j>>1, m^(m<<(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k|j]) & m
			a[k] ^= t << j
			a[k|j] ^= t
		}
	}
}
