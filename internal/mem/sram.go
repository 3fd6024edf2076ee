package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// SRAM is one core's 32 KB scratchpad. Accessors take local byte offsets.
// All multi-byte accesses are little-endian, as on the real chip.
type SRAM struct {
	data [SRAMSize]byte
	// accessed counts the bytes moved through the access interface
	// (loads, stores and Bytes windows), feeding the energy model's
	// SRAM term. A Bytes window is charged once, at its size, when it is
	// taken - the cheapest deterministic accounting that stays off the
	// bulk-arithmetic hot paths.
	accessed uint64
	// Pad the struct to a 4 KB multiple so the per-core scratchpads
	// carved out of one backing array (NewSRAMs) keep page-aligned data:
	// without it, adding the 8-byte counter shifts every later core's
	// 32 KB window off alignment and costs a measurable few percent on
	// the load/store hot path.
	_ [4096 - 8]byte
}

// NewSRAM returns a zeroed scratchpad.
func NewSRAM() *SRAM { return &SRAM{} }

// NewSRAMs returns n zeroed scratchpads carved out of one backing
// allocation - how a chip builds its per-core memories without paying
// one heap object per core.
func NewSRAMs(n int) []*SRAM {
	backing := make([]SRAM, n)
	out := make([]*SRAM, n)
	for i := range backing {
		out[i] = &backing[i]
	}
	return out
}

// Reset zeroes the scratchpad and its access statistics. Every write
// path (the stores, Bytes windows, Copy) charges accessed, so a
// scratchpad with nothing accessed since the last Reset is still all
// zeros and skips the 32 KB clear - the common case for the cores of a
// large board a small workgroup never touched.
func (s *SRAM) Reset() {
	if s.accessed == 0 {
		return
	}
	clear(s.data[:])
	s.accessed = 0
}

// AccessedBytes returns the bytes moved through the scratchpad's access
// interface since construction or Reset (the energy model's SRAM term).
func (s *SRAM) AccessedBytes() uint64 { return s.accessed }

// Bounds are enforced by the compiler's intrinsic slice checks inside
// each accessor: an out-of-range access panics with the runtime's
// index-out-of-range error, which carries the offending index. The
// bespoke pre-check with a formatted message was retired when the
// accessors took on the energy counter - without the extra call they
// fit the inlining budget, so the per-element load/store hot path
// (3 loads + 1 store per multiply-add in the matmul kernels) compiles
// to straight-line code; BENCH_5.json pins the result.

// count charges an access to the energy model's byte counter.
func (s *SRAM) count(n int) { s.accessed += uint64(n) }

// Bytes returns a slice aliasing n bytes of SRAM at off. The caller must
// not grow it; writes through it are visible to subsequent reads.
func (s *SRAM) Bytes(off Addr, n int) []byte {
	s.count(n)
	return s.data[off : int(off)+n]
}

// Load8 reads one byte.
func (s *SRAM) Load8(off Addr) uint8 { s.count(1); return s.data[off] }

// Store8 writes one byte.
func (s *SRAM) Store8(off Addr, v uint8) { s.count(1); s.data[off] = v }

// Load32 reads a 32-bit little-endian word.
func (s *SRAM) Load32(off Addr) uint32 {
	s.count(4)
	return binary.LittleEndian.Uint32(s.data[off : int(off)+4])
}

// Store32 writes a 32-bit little-endian word.
func (s *SRAM) Store32(off Addr, v uint32) {
	s.count(4)
	binary.LittleEndian.PutUint32(s.data[off:int(off)+4], v)
}

// Load64 reads a 64-bit little-endian doubleword.
func (s *SRAM) Load64(off Addr) uint64 {
	s.count(8)
	return binary.LittleEndian.Uint64(s.data[off : int(off)+8])
}

// Store64 writes a 64-bit little-endian doubleword.
func (s *SRAM) Store64(off Addr, v uint64) {
	s.count(8)
	binary.LittleEndian.PutUint64(s.data[off:int(off)+8], v)
}

// LoadF32 reads a single-precision float.
func (s *SRAM) LoadF32(off Addr) float32 { return math.Float32frombits(s.Load32(off)) }

// StoreF32 writes a single-precision float.
func (s *SRAM) StoreF32(off Addr, v float32) { s.Store32(off, math.Float32bits(v)) }

// Copy copies n bytes within or between scratchpads (dst and src may be
// the same SRAM; overlapping ranges copy as Go's copy does).
func Copy(dst *SRAM, dstOff Addr, src *SRAM, srcOff Addr, n int) {
	copy(dst.Bytes(dstOff, n), src.Bytes(srcOff, n))
}

// DRAM is the shared off-chip memory window: 32 MB of address space
// backed by 64 KB pages allocated on first write, so a board pays only
// for the part of the window its jobs actually store to. A read of a
// page never written returns zeros and allocates nothing. Accessors
// copy in and out (Read/Write) rather than hand out aliases, so no
// caller can hold a live slice into the window across a Reset.
type DRAM struct {
	pages [dramPages]*[dramPageSize]byte
	// dirty marks the pages written since construction or the last
	// Reset: the only ones Reset has to clear. A clean allocated page
	// is all zeros and is kept for the next job to reuse.
	dirty [dramPages]bool
	// accessed counts bytes moved through the access interface, as
	// SRAM.accessed does; it feeds the energy model's DRAM term and is
	// cleared by Reset.
	accessed uint64
}

const (
	dramPageShift = 16
	dramPageSize  = 1 << dramPageShift
	dramPageMask  = dramPageSize - 1
	dramPages     = DRAMSize / dramPageSize
)

// NewDRAM returns the 32 MB shared window with no pages allocated.
func NewDRAM() *DRAM { return &DRAM{} }

// check bounds-checks an access with a formatted panic and charges the
// access counter. Unlike the SRAM accessors, the DRAM path keeps a
// bespoke pre-check: it sits behind the eLink/DMA models, never on a
// per-element kernel hot path.
func (d *DRAM) check(off Addr, n int) {
	if int(off)+n > DRAMSize {
		panic(fmt.Sprintf("mem: DRAM access [%#x,%#x) beyond %d MB window",
			off, int(off)+n, DRAMSize>>20))
	}
	d.accessed += uint64(n)
}

// AccessedBytes returns the bytes moved through the window's access
// interface since construction or Reset (the energy model's DRAM term).
func (d *DRAM) AccessedBytes() uint64 { return d.accessed }

// Reset zeroes the pages written since the last Reset and clears the
// access statistics. Allocated pages are kept, so a recycled board
// reuses them instead of allocating again.
func (d *DRAM) Reset() {
	for i := range d.dirty {
		if d.dirty[i] {
			clear(d.pages[i][:])
			d.dirty[i] = false
		}
	}
	d.accessed = 0
}

// page returns page p for writing, allocating it on first use and
// marking it dirty.
func (d *DRAM) page(p int) *[dramPageSize]byte {
	pg := d.pages[p]
	if pg == nil {
		pg = new([dramPageSize]byte)
		d.pages[p] = pg
	}
	d.dirty[p] = true
	return pg
}

// Read copies len(dst) bytes of DRAM at off into dst.
func (d *DRAM) Read(off Addr, dst []byte) {
	d.check(off, len(dst))
	d.read(int(off), dst)
}

// Write copies src into DRAM at off.
func (d *DRAM) Write(off Addr, src []byte) {
	d.check(off, len(src))
	d.write(int(off), src)
}

// read and write are Read and Write after the bounds check, walking the
// range page by page.
func (d *DRAM) read(off int, dst []byte) {
	for len(dst) > 0 {
		in := off & dramPageMask
		n := min(len(dst), dramPageSize-in)
		if pg := d.pages[off>>dramPageShift]; pg != nil {
			copy(dst[:n], pg[in:])
		} else {
			clear(dst[:n])
		}
		dst, off = dst[n:], off+n
	}
}

func (d *DRAM) write(off int, src []byte) {
	for len(src) > 0 {
		n := copy(d.page(off >> dramPageShift)[off&dramPageMask:], src)
		src, off = src[n:], off+n
	}
}

// Load32 reads a 32-bit little-endian word. A word inside one page -
// every aligned word, so every DMA beat - takes the direct path.
func (d *DRAM) Load32(off Addr) uint32 {
	d.check(off, 4)
	in := int(off) & dramPageMask
	if in > dramPageSize-4 {
		var b [4]byte
		d.read(int(off), b[:])
		return binary.LittleEndian.Uint32(b[:])
	}
	if pg := d.pages[off>>dramPageShift]; pg != nil {
		return binary.LittleEndian.Uint32(pg[in:])
	}
	return 0
}

// Store32 writes a 32-bit little-endian word, on the same single-page
// fast path as Load32.
func (d *DRAM) Store32(off Addr, v uint32) {
	d.check(off, 4)
	in := int(off) & dramPageMask
	if in > dramPageSize-4 {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		d.write(int(off), b[:])
		return
	}
	binary.LittleEndian.PutUint32(d.page(int(off >> dramPageShift))[in:], v)
}

// LoadF32 reads a single-precision float.
func (d *DRAM) LoadF32(off Addr) float32 { return math.Float32frombits(d.Load32(off)) }

// StoreF32 writes a single-precision float.
func (d *DRAM) StoreF32(off Addr, v float32) { d.Store32(off, math.Float32bits(v)) }

// Size returns the window size in bytes.
func (d *DRAM) Size() int { return DRAMSize }
