// Package ugbin is the versioned binary on-disk format for uncertain
// graphs (".ugb"): a 64-byte header followed by 8-byte-aligned sections
// holding exactly the five columnar arrays an uncertain.Graph keeps in
// memory (pairU, pairV, pairP, incOff, incIdx — see uncertain.Columns).
// Because the file layout *is* the in-memory layout, loading is one
// mmap plus validation: no parsing, no per-pair allocation, and the
// page cache shares one copy of a graph across every process serving
// it. A portable read-into-heap fallback is selected automatically on
// platforms without mmap (or on mmap failure) and can be forced with
// ModeHeap.
//
// # Format (version 1, little-endian)
//
//	offset  size  field
//	     0     8  magic "UGB1\r\n\x1a\n" (CR/LF/^Z catch text-mode mangling)
//	     8     4  version (uint32, = 1)
//	    12     4  endianness marker (uint32, = 0x01020304 encoded little-endian)
//	    16     8  n: vertex count (int64)
//	    24     8  m: candidate-pair count (int64)
//	    32     4  CRC-32C (Castagnoli) of every byte after the header
//	    36    28  reserved, must be zero
//	    64     —  sections, in order, each padded to an 8-byte boundary:
//	              pairU  m×int32   lower endpoints
//	              pairV  m×int32   upper endpoints
//	              pairP  m×float64 probabilities
//	              incOff (n+1)×int64  CSR offsets into incIdx
//	              incIdx 2m×int32  incident pair indices
//
// The file ends exactly where the last section's padding ends; readers
// reject any other size before touching a section. Every count is
// validated against the file size before a single byte of section data
// is interpreted, the checksum is verified, and the arrays then pass
// uncertain.FromColumns's full structural validation, duplicate pairs
// included (one n-entry scratch array, n already bounded by the file
// size), so corrupt or hostile files produce errors, never panics and
// never attacker-sized allocations.
package ugbin

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"

	"uncertaingraph/internal/uncertain"
)

// Magic is the 8-byte file signature every .ugb file starts with.
const Magic = "UGB1\r\n\x1a\n"

// Version is the current format version.
const Version = 1

const (
	headerSize = 64
	endianMark = 0x01020304
	// maxCount bounds n and m: pair indices and vertex ids are int32 on
	// disk and in memory.
	maxCount = math.MaxInt32
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrFormat wraps every malformed-file error so callers can distinguish
// "not a valid .ugb" from I/O failures.
var ErrFormat = errors.New("ugbin: invalid file")

// Mode selects how Load brings a file into memory.
type Mode int

const (
	// ModeAuto memory-maps when the platform supports it and falls back
	// to a heap read otherwise (or when mapping fails).
	ModeAuto Mode = iota
	// ModeMmap requires mmap; Load fails where it is unsupported.
	ModeMmap
	// ModeHeap always reads the file into the heap.
	ModeHeap
)

// ParseMode converts a flag string (auto|mmap|heap) to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "auto":
		return ModeAuto, nil
	case "mmap":
		return ModeMmap, nil
	case "heap":
		return ModeHeap, nil
	}
	return ModeAuto, fmt.Errorf("ugbin: unknown load mode %q (want auto, mmap or heap)", s)
}

func (m Mode) String() string {
	switch m {
	case ModeMmap:
		return "mmap"
	case ModeHeap:
		return "heap"
	}
	return "auto"
}

// Sniff reports whether prefix begins with the .ugb magic. Callers use
// it to route a file or upload between the binary and text readers;
// prefixes shorter than the magic are never binary.
func Sniff(prefix []byte) bool {
	return len(prefix) >= len(Magic) && string(prefix[:len(Magic)]) == Magic
}

// sections is the byte layout derived from (n, m): start offset and
// byte length of each array section, plus the exact total file size.
type sections struct {
	pairU, pairV, pairP, incOff, incIdx span
	total                               int64
}

type span struct{ off, size int64 }

func (s span) end() int64 { return s.off + s.size }

func align8(x int64) int64 { return (x + 7) &^ 7 }

// layoutFor computes the section layout for n vertices and m pairs.
// Counts are validated first, so all arithmetic below stays far from
// int64 overflow (n, m <= 2^31-1 bounds the total under 2^36).
func layoutFor(n, m int64) (sections, error) {
	if n < 0 || n > maxCount {
		return sections{}, fmt.Errorf("%w: vertex count %d outside [0,%d]", ErrFormat, n, int64(maxCount))
	}
	if m < 0 || m > maxCount {
		return sections{}, fmt.Errorf("%w: pair count %d outside [0,%d]", ErrFormat, m, int64(maxCount))
	}
	var s sections
	cur := int64(headerSize)
	place := func(size int64) span {
		sp := span{off: cur, size: size}
		cur = align8(cur + size)
		return sp
	}
	s.pairU = place(4 * m)
	s.pairV = place(4 * m)
	s.pairP = place(8 * m)
	s.incOff = place(8 * (n + 1))
	s.incIdx = place(8 * m) // 2m entries × 4 bytes
	s.total = cur
	return s, nil
}

// Write serializes g in the .ugb format. The graph's columnar arrays
// are written directly (they are already the on-disk section layout),
// so the cost is one checksum pass plus sequential writes.
func Write(w io.Writer, g *uncertain.Graph) error {
	if !hostLittleEndian {
		return errors.New("ugbin: writing requires a little-endian host")
	}
	// The section slices below may alias a mapping that LoadMode's
	// finalizer on g releases; they do not keep g reachable, so pin g
	// until the last section is written.
	defer runtime.KeepAlive(g)
	c := g.Columns()
	lay, err := layoutFor(int64(g.NumVertices()), int64(g.NumPairs()))
	if err != nil {
		return err
	}

	secs := [][]byte{
		int32Bytes(c.PairU),
		int32Bytes(c.PairV),
		float64Bytes(c.PairP),
		int64Bytes(c.IncOff),
		int32Bytes(c.IncIdx),
	}
	spans := []span{lay.pairU, lay.pairV, lay.pairP, lay.incOff, lay.incIdx}

	var pad [8]byte
	crc := uint32(0)
	cur := int64(headerSize)
	for i, sec := range secs {
		crc = crc32.Update(crc, crcTable, sec)
		if p := align8(spans[i].end()) - spans[i].end(); p > 0 {
			crc = crc32.Update(crc, crcTable, pad[:p])
		}
		cur = align8(spans[i].end())
	}
	if cur != lay.total {
		return fmt.Errorf("ugbin: internal layout mismatch (%d != %d)", cur, lay.total)
	}

	var hdr [headerSize]byte
	copy(hdr[0:8], Magic)
	putU32(hdr[8:12], Version)
	putU32(hdr[12:16], endianMark)
	putU64(hdr[16:24], uint64(g.NumVertices()))
	putU64(hdr[24:32], uint64(g.NumPairs()))
	putU32(hdr[32:36], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for i, sec := range secs {
		if _, err := w.Write(sec); err != nil {
			return err
		}
		if p := align8(spans[i].end()) - spans[i].end(); p > 0 {
			if _, err := w.Write(pad[:p]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteFile writes g to path atomically-enough for tooling: a direct
// create-and-write (partial files fail the checksum on load).
func WriteFile(path string, g *uncertain.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decode validates data as a complete .ugb image and adopts its
// sections as a Graph without copying. mappedBytes flows into the
// graph's footprint accounting (len(data) when data is an mmap region,
// 0 when it is heap memory). data must be 8-byte aligned.
func decode(data []byte, mappedBytes int64) (*uncertain.Graph, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, smaller than the %d-byte header", ErrFormat, len(data), headerSize)
	}
	if !Sniff(data) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, data[:len(Magic)])
	}
	if v := getU32(data[8:12]); v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d (reader supports %d)", ErrFormat, v, Version)
	}
	if em := getU32(data[12:16]); em != endianMark {
		return nil, fmt.Errorf("%w: endianness marker %#x, want %#x (big-endian file?)", ErrFormat, em, endianMark)
	}
	if !hostLittleEndian {
		return nil, errors.New("ugbin: loading requires a little-endian host")
	}
	n := int64(getU64(data[16:24]))
	m := int64(getU64(data[24:32]))
	lay, err := layoutFor(n, m)
	if err != nil {
		return nil, err
	}
	for _, b := range data[36:headerSize] {
		if b != 0 {
			return nil, fmt.Errorf("%w: reserved header bytes not zero", ErrFormat)
		}
	}
	if int64(len(data)) != lay.total {
		return nil, fmt.Errorf("%w: file is %d bytes, layout for n=%d m=%d requires exactly %d",
			ErrFormat, len(data), n, m, lay.total)
	}
	if want, got := getU32(data[32:36]), crc32.Checksum(data[headerSize:], crcTable); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (header %#08x, content %#08x)", ErrFormat, want, got)
	}
	for _, sp := range []span{lay.pairU, lay.pairV, lay.pairP, lay.incOff, lay.incIdx} {
		for _, b := range data[sp.end():align8(sp.end())] {
			if b != 0 {
				return nil, fmt.Errorf("%w: section padding not zero", ErrFormat)
			}
		}
	}
	sec := func(sp span) []byte { return data[sp.off:sp.end():sp.end()] }
	cols := uncertain.Columns{
		PairU:  bytesInt32(sec(lay.pairU)),
		PairV:  bytesInt32(sec(lay.pairV)),
		PairP:  bytesFloat64(sec(lay.pairP)),
		IncOff: bytesInt64(sec(lay.incOff)),
		IncIdx: bytesInt32(sec(lay.incIdx)),
	}
	g, err := uncertain.FromColumns(int(n), cols, mappedBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return g, nil
}

// Decode parses a .ugb image held in memory. The returned graph aliases
// data — zero copies — so the caller must keep data alive and unmodified
// for the graph's lifetime (a registry retaining the uploaded bytes as
// the graph's durable source does exactly that). Because the arrays
// alias caller-owned memory, the graph reports len(data) as MappedBytes
// and 0 exclusive heap bytes: dropping the graph frees nothing the
// caller isn't already holding. If data is not 8-byte aligned it is
// copied once into an aligned buffer first (and the copy, being
// graph-owned, is charged as heap).
func Decode(data []byte) (*uncertain.Graph, error) {
	if !aligned8(data) {
		return decode(alignedCopy(data), 0)
	}
	return decode(data, int64(len(data)))
}

// Load brings the .ugb file at path into memory with ModeAuto.
func Load(path string) (*uncertain.Graph, error) { return LoadMode(path, ModeAuto) }

// LoadMode loads path with an explicit mode. Under ModeMmap (and
// ModeAuto where supported) the returned graph's arrays alias the
// mapped file — the mapping is released when the graph is
// garbage-collected, and MappedBytes reports the file size. Under
// ModeHeap (and ModeAuto fallback) the file is read into one aligned
// heap buffer.
func LoadMode(path string, mode Mode) (*uncertain.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerSize {
		return nil, fmt.Errorf("%w: %s is %d bytes, smaller than the %d-byte header", ErrFormat, path, size, headerSize)
	}
	if size > math.MaxInt64/2 || int64(int(size)) != size {
		return nil, fmt.Errorf("%w: %s is too large to map (%d bytes)", ErrFormat, path, size)
	}

	if mode == ModeMmap || (mode == ModeAuto && mmapSupported) {
		data, unmap, merr := mapFile(f, size)
		if merr == nil {
			g, derr := decode(data, size)
			if derr != nil {
				unmap()
				return nil, fmt.Errorf("%s: %w", path, derr)
			}
			// The arrays alias the mapping; release it only once the
			// graph itself is unreachable. (Eviction from a serving
			// registry just drops the reference — the GC unmaps later,
			// so in-flight requests holding the graph stay safe.)
			runtime.SetFinalizer(g, func(*uncertain.Graph) { unmap() })
			return g, nil
		}
		if mode == ModeMmap {
			return nil, fmt.Errorf("ugbin: mmap %s: %w", path, merr)
		}
	}

	buf := make([]uint64, (size+7)/8) // 8-byte-aligned backing
	data := uint64Bytes(buf)[:size]
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("ugbin: reading %s: %w", path, err)
	}
	g, derr := decode(data, 0)
	if derr != nil {
		return nil, fmt.Errorf("%s: %w", path, derr)
	}
	return g, nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	putU32(b[:4], uint32(v))
	putU32(b[4:8], uint32(v>>32))
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b[:4])) | uint64(getU32(b[4:8]))<<32
}
