package mem

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestCoreIDRoundTrip(t *testing.T) {
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			id := MakeCoreID(r, c)
			if id.Row() != r || id.Col() != c {
				t.Fatalf("MakeCoreID(%d,%d) round-trip gave (%d,%d)", r, c, id.Row(), id.Col())
			}
		}
	}
}

func TestGlobalAddressMatchesHardwareLayout(t *testing.T) {
	// Core (0,0) of the E64G401 sits at mesh (32,8) -> ID 0x808 ->
	// global base 0x80800000, as documented in the datasheet.
	m := NewMap(8, 8)
	if got := m.CoreIDOf(0); got != 0x808 {
		t.Fatalf("core 0 ID = %#x, want 0x808", got)
	}
	if got := m.GlobalOf(0, 0); got != 0x80800000 {
		t.Fatalf("core 0 base = %#x, want 0x80800000", got)
	}
	// Core (7,7) -> mesh (39,15) -> ID (39<<6)|15 = 0x9CF.
	if got := m.GlobalOf(m.CoreIndex(7, 7), 0x100); got != 0x9CF00100 {
		t.Fatalf("core (7,7)+0x100 = %#x, want 0x9CF00100", got)
	}
}

func TestDecodeLocalAlias(t *testing.T) {
	m := NewMap(8, 8)
	tgt := m.Decode(42, 0x1234)
	if tgt.Kind != KindLocal || tgt.Core != 42 || tgt.Off != 0x1234 {
		t.Fatalf("Decode local = %+v", tgt)
	}
	// Beyond SRAM but under the 1MB window: unmapped.
	if tgt := m.Decode(0, 0x8000); tgt.Kind != KindInvalid {
		t.Fatalf("0x8000 decoded as %v, want invalid", tgt.Kind)
	}
}

func TestDecodeRemoteCore(t *testing.T) {
	m := NewMap(8, 8)
	a := m.GlobalOf(m.CoreIndex(3, 5), 0x2000)
	tgt := m.Decode(0, a)
	if tgt.Kind != KindCore || tgt.Core != m.CoreIndex(3, 5) || tgt.Off != 0x2000 {
		t.Fatalf("Decode remote = %+v", tgt)
	}
	// A core's own global window decodes as KindCore (self-reference).
	self := m.GlobalOf(7, 0x10)
	tgt = m.Decode(7, self)
	if tgt.Kind != KindCore || tgt.Core != 7 {
		t.Fatalf("self-global decode = %+v", tgt)
	}
}

func TestDecodeDRAM(t *testing.T) {
	m := NewMap(8, 8)
	tgt := m.Decode(0, DRAMBase+0x100)
	if tgt.Kind != KindDRAM || tgt.Off != 0x100 {
		t.Fatalf("Decode DRAM = %+v", tgt)
	}
	if tgt := m.Decode(0, DRAMBase+DRAMSize); tgt.Kind != KindInvalid {
		t.Fatalf("past-end DRAM decoded as %v", tgt.Kind)
	}
}

func TestDecodeOffChipCoreInvalid(t *testing.T) {
	m := NewMap(8, 8)
	// Mesh node (1,1) exists in the 64x64 global space but not on this chip.
	a := MakeCoreID(1, 1).Global(0)
	if tgt := m.Decode(0, a); tgt.Kind != KindInvalid {
		t.Fatalf("off-chip core decoded as %v", tgt.Kind)
	}
	// SRAM hole in an on-chip core's window.
	a = m.CoreIDOf(5).Global(0) + SRAMSize
	if tgt := m.Decode(0, a); tgt.Kind != KindInvalid {
		t.Fatalf("SRAM hole decoded as %v", tgt.Kind)
	}
}

func TestDecodeRoundTripProperty(t *testing.T) {
	m := NewMap(8, 8)
	f := func(core uint8, off uint16) bool {
		idx := int(core) % m.NumCores()
		o := Addr(off) % SRAMSize
		tgt := m.Decode(0, m.GlobalOf(idx, o))
		return tgt.Kind == KindCore && tgt.Core == idx && tgt.Off == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoreIndexCoordsRoundTrip(t *testing.T) {
	m := NewMap(8, 8)
	for i := 0; i < m.NumCores(); i++ {
		r, c := m.CoreCoords(i)
		if m.CoreIndex(r, c) != i {
			t.Fatalf("coords round-trip broke at %d", i)
		}
	}
}

func TestBankOf(t *testing.T) {
	cases := []struct {
		off  Addr
		bank int
	}{{0, 0}, {0x1FFF, 0}, {0x2000, 1}, {0x3FFF, 1}, {0x4000, 2}, {0x6000, 3}, {0x7FFF, 3}}
	for _, c := range cases {
		if got := BankOf(c.off); got != c.bank {
			t.Errorf("BankOf(%#x) = %d, want %d", c.off, got, c.bank)
		}
	}
}

func TestSRAMAccessors(t *testing.T) {
	s := NewSRAM()
	s.Store32(0x100, 0xDEADBEEF)
	if got := s.Load32(0x100); got != 0xDEADBEEF {
		t.Fatalf("Load32 = %#x", got)
	}
	// Little-endian byte order.
	if got := s.Load8(0x100); got != 0xEF {
		t.Fatalf("byte 0 = %#x, want 0xEF (little-endian)", got)
	}
	s.Store64(0x200, 0x0102030405060708)
	if got := s.Load64(0x200); got != 0x0102030405060708 {
		t.Fatalf("Load64 = %#x", got)
	}
	s.StoreF32(0x300, 3.5)
	if got := s.LoadF32(0x300); got != 3.5 {
		t.Fatalf("LoadF32 = %v", got)
	}
}

func TestSRAMBoundsPanic(t *testing.T) {
	s := NewSRAM()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range store should panic")
		}
	}()
	s.Store32(SRAMSize-2, 1)
}

func TestCopyBetweenSRAMs(t *testing.T) {
	a, b := NewSRAM(), NewSRAM()
	for i := 0; i < 16; i++ {
		a.Store8(Addr(i), uint8(i+1))
	}
	Copy(b, 0x40, a, 0, 16)
	for i := 0; i < 16; i++ {
		if b.Load8(Addr(0x40+i)) != uint8(i+1) {
			t.Fatalf("byte %d not copied", i)
		}
	}
}

func TestDRAMAccessors(t *testing.T) {
	d := NewDRAM()
	if d.Size() != DRAMSize {
		t.Fatalf("DRAM size = %d", d.Size())
	}
	d.StoreF32(0x1000, -2.25)
	if got := d.LoadF32(0x1000); got != -2.25 {
		t.Fatalf("DRAM float = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range DRAM access should panic")
		}
	}()
	d.Load32(DRAMSize - 1)
}

func TestLayoutPlaceAtAndOverlap(t *testing.T) {
	l := NewLayout()
	if _, err := l.PlaceAt("code", 0, 0x2000); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PlaceAt("clash", 0x1FFF, 16); err == nil {
		t.Fatal("overlap not detected")
	}
	if _, err := l.PlaceAt("huge", 0x7000, 0x2000); err == nil {
		t.Fatal("out-of-SRAM placement not detected")
	}
	if _, err := l.PlaceAt("empty", 0x3000, 0); err == nil {
		t.Fatal("zero-size region not rejected")
	}
}

func TestLayoutPaperMatmulPlan(t *testing.T) {
	// The exact §VII layout: code in banks 0-1, stack in bank 1, A at
	// 0x4000, its rotation buffer at 0x5000, B at 0x5800, its buffer at
	// 0x6800, C at 0x7000. It must all fit; a double-buffered plan must not.
	l := NewLayout()
	mustPlace := func(name string, off Addr, size int) {
		t.Helper()
		if _, err := l.PlaceAt(name, off, size); err != nil {
			t.Fatal(err)
		}
	}
	mustPlace("code", 0x0000, 13*1024/1024*1024) // 13 KB of code+macros
	mustPlace("stack", 0x3400, 0x0C00)
	mustPlace("A", 0x4000, 0x1000)
	mustPlace("Abuf", 0x5000, 0x0800)
	mustPlace("B", 0x5800, 0x1000)
	mustPlace("Bbuf", 0x6800, 0x0800)
	mustPlace("C", 0x7000, 0x1000)
	if l.Free() < 0 {
		t.Fatal("plan should fit")
	}

	// Full double buffering of 32x32 operands (3x4 KB + 2x4 KB extra)
	// alongside 13 KB of code cannot fit - the reason the paper invents
	// the half-buffer rotation scheme.
	l2 := NewLayout()
	if _, err := l2.PlaceAt("code", 0, 13*1024); err != nil {
		t.Fatal(err)
	}
	need := []int{4096, 4096, 4096, 4096, 4096} // A, A', B, B', C
	var err error
	for i, sz := range need {
		if _, err = l2.Alloc("buf", sz, -1, 8); err != nil {
			if i < 4 {
				t.Fatalf("only %d of 5 buffers placed before overflow; paper implies 4 fit (code 13KB + 16KB + stack impossible)", i)
			}
			break
		}
	}
	if err == nil {
		t.Fatal("double-buffered 32x32 plan should NOT fit in 32 KB with 13 KB code")
	}
}

func TestLayoutAllocBankAffinity(t *testing.T) {
	l := NewLayout()
	r, err := l.Alloc("d1", 1024, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b := BankOf(r.Off); b != 2 {
		t.Fatalf("allocated in bank %d, want 2", b)
	}
	// Fill bank 2 and confirm refusal.
	if _, err := l.Alloc("d2", BankSize-1024, 2, 1); err != nil {
		t.Fatal(err)
	}
	_, err = l.Alloc("d3", 64, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "bank 2") {
		t.Fatalf("err = %v, want bank-2 overflow", err)
	}
}

func TestLayoutAllocSkipsReservations(t *testing.T) {
	l := NewLayout()
	l.MustPlaceAt("hole", 0x100, 0x100)
	r, err := l.Alloc("a", 0x100, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Off != 0 {
		t.Fatalf("first gap at %#x, want 0", r.Off)
	}
	r2, err := l.Alloc("b", 0x200, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Off != 0x200 {
		t.Fatalf("second alloc at %#x, want 0x200 (after hole)", r2.Off)
	}
}

func TestLayoutAccounting(t *testing.T) {
	l := NewLayout()
	l.MustPlaceAt("x", 0x1F00, 0x200) // straddles banks 0 and 1
	use := l.BankUse()
	if use[0] != 0x100 || use[1] != 0x100 {
		t.Fatalf("bank use = %v, want 256 in banks 0 and 1", use)
	}
	if l.Used() != 0x200 || l.Free() != SRAMSize-0x200 {
		t.Fatalf("used/free = %d/%d", l.Used(), l.Free())
	}
	if _, ok := l.Region("x"); !ok {
		t.Fatal("Region lookup failed")
	}
	if _, ok := l.Region("y"); ok {
		t.Fatal("phantom region")
	}
	if s := l.String(); !strings.Contains(s, "x") {
		t.Fatalf("String() = %q", s)
	}
}

func TestLayoutAlignment(t *testing.T) {
	l := NewLayout()
	l.MustPlaceAt("pad", 0, 3)
	r, err := l.Alloc("aligned", 16, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Off != 8 {
		t.Fatalf("aligned alloc at %#x, want 8", r.Off)
	}
	if _, err := l.Alloc("bad", 8, 0, 3); err == nil {
		t.Fatal("non-power-of-two alignment accepted")
	}
}

func TestSRAMResetZeroes(t *testing.T) {
	s := NewSRAM()
	s.Store32(0, 0xDEADBEEF)
	s.Store64(SRAMSize-8, ^uint64(0))
	s.Reset()
	if s.Load32(0) != 0 || s.Load64(SRAMSize-8) != 0 {
		t.Fatal("Reset left bytes behind")
	}
}

// TestSRAMResetAfterEveryWritePath pins the invariant Reset's early
// return rests on: every way of writing a scratchpad charges its access
// counter, so the next Reset really clears it.
func TestSRAMResetAfterEveryWritePath(t *testing.T) {
	const off = 0x7F0
	for _, tc := range []struct {
		name  string
		write func(s *SRAM)
	}{
		{"Store8", func(s *SRAM) { s.Store8(off, 0xAB) }},
		{"Store32", func(s *SRAM) { s.Store32(off, 0xDEADBEEF) }},
		{"Store64", func(s *SRAM) { s.Store64(off, ^uint64(0)) }},
		{"StoreF32", func(s *SRAM) { s.StoreF32(off, -1.5) }},
		{"Bytes", func(s *SRAM) { s.Bytes(off, 8)[3] = 0x5A }},
		{"Copy", func(s *SRAM) {
			src := NewSRAM()
			src.Store64(0, 0x0102030405060708)
			Copy(s, off, src, 0, 8)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSRAM()
			s.Reset() // an untouched scratchpad: the early-return path
			tc.write(s)
			if s.AccessedBytes() == 0 {
				t.Fatal("write path did not charge the access counter")
			}
			s.Reset()
			if s.data != ([SRAMSize]byte{}) {
				t.Fatal("Reset after the write left bytes behind")
			}
			if s.AccessedBytes() != 0 {
				t.Fatalf("Reset left AccessedBytes = %d", s.AccessedBytes())
			}
		})
	}
}

func TestNewSRAMsAreIndependent(t *testing.T) {
	srams := NewSRAMs(4)
	if len(srams) != 4 {
		t.Fatalf("NewSRAMs(4) returned %d scratchpads", len(srams))
	}
	srams[1].Store32(0x100, 42)
	for i, s := range srams {
		want := uint32(0)
		if i == 1 {
			want = 42
		}
		if got := s.Load32(0x100); got != want {
			t.Fatalf("sram %d reads %d, want %d", i, got, want)
		}
	}
}

// allocatedPages counts the DRAM pages backed by memory.
func allocatedPages(d *DRAM) int {
	n := 0
	for _, pg := range d.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

func TestDRAMUntouchedPageReadsZeroWithoutAllocating(t *testing.T) {
	d := NewDRAM()
	if d.Load32(0x1234) != 0 || d.LoadF32(DRAMSize-4) != 0 {
		t.Fatal("untouched DRAM reads non-zero")
	}
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	d.Read(3*dramPageSize-4, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("Read of untouched pages left byte %d = %d, want 0", i, b)
		}
	}
	if n := allocatedPages(d); n != 0 {
		t.Fatalf("reads allocated %d pages, want 0", n)
	}
	if got := d.AccessedBytes(); got != 4+4+8 {
		t.Fatalf("AccessedBytes = %d, want 16 (reads are charged)", got)
	}
	d.Store32(5*dramPageSize+8, 1)
	if n := allocatedPages(d); n != 1 {
		t.Fatalf("one store allocated %d pages, want 1", n)
	}
}

func TestDRAMWriteStraddlesPageBoundary(t *testing.T) {
	d := NewDRAM()
	src := make([]byte, 3*dramPageSize/2)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	off := Addr(dramPageSize - 100)
	d.Write(off, src)
	if n := allocatedPages(d); n != 3 {
		t.Fatalf("a %d-byte write from %#x allocated %d pages, want 3", len(src), off, n)
	}
	got := make([]byte, len(src)+8)
	d.Read(off-4, got)
	if !bytes.Equal(got[4:len(src)+4], src) {
		t.Fatal("straddling write did not read back intact")
	}
	for _, b := range append(got[:4], got[len(src)+4:]...) {
		if b != 0 {
			t.Fatal("bytes around the straddling write are not zero")
		}
	}
}

func TestDRAMUnalignedWordAcrossPageBoundary(t *testing.T) {
	d := NewDRAM()
	for _, off := range []Addr{dramPageSize - 3, dramPageSize - 2, dramPageSize - 1, 7*dramPageSize - 1} {
		d.Store32(off, 0xA1B2C3D4)
		if got := d.Load32(off); got != 0xA1B2C3D4 {
			t.Fatalf("Load32(%#x) = %#x after Store32, want 0xa1b2c3d4", off, got)
		}
		var b [4]byte
		d.Read(off, b[:])
		if b != [4]byte{0xD4, 0xC3, 0xB2, 0xA1} {
			t.Fatalf("bytes at %#x = % x, want little-endian d4 c3 b2 a1", off, b)
		}
	}
	// A word read across into a never-written page sees its zeros.
	d.Store32(9*dramPageSize-4, 0xFFFFFFFF)
	if got := d.Load32(9*dramPageSize - 2); got != 0xFFFF {
		t.Fatalf("Load32 across into an untouched page = %#x, want 0xffff", got)
	}
}

func TestDRAMResetClearsExactlyDirtyPages(t *testing.T) {
	d := NewDRAM()
	d.Store32(0, 1)
	d.StoreF32(1<<20, 2.5)
	d.Write(dramPageSize-2, []byte{9, 9, 9, 9})
	d.Reset()
	if d.AccessedBytes() != 0 {
		t.Fatalf("Reset left AccessedBytes = %d", d.AccessedBytes())
	}
	for p, pg := range d.pages {
		if d.dirty[p] {
			t.Fatalf("page %d still dirty after Reset", p)
		}
		if pg != nil && *pg != ([dramPageSize]byte{}) {
			t.Fatalf("page %d not zero after Reset", p)
		}
	}
	// Reset keeps the pages for reuse and the next cycle clears only
	// what it dirtied.
	if n := allocatedPages(d); n != 3 {
		t.Fatalf("%d pages kept after Reset, want 3", n)
	}
	d.Store32(64, 7)
	for p := range d.dirty {
		if d.dirty[p] != (p == 0) {
			t.Fatalf("page %d dirty = %v after one store to page 0", p, d.dirty[p])
		}
	}
	d.Reset()
	if d.Load32(64) != 0 {
		t.Fatal("second Reset left dirty bytes")
	}
}

func TestDRAMOutOfRangePanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		access func(d *DRAM)
		want   string
	}{
		{"Load32", func(d *DRAM) { d.Load32(DRAMSize - 1) }, "mem: DRAM access [0x1ffffff,0x2000003) beyond 32 MB window"},
		{"Store32", func(d *DRAM) { d.Store32(DRAMSize, 0) }, "mem: DRAM access [0x2000000,0x2000004) beyond 32 MB window"},
		{"Read", func(d *DRAM) { d.Read(DRAMSize-8, make([]byte, 16)) }, "mem: DRAM access [0x1fffff8,0x2000008) beyond 32 MB window"},
		{"Write", func(d *DRAM) { d.Write(DRAMSize+64, []byte{1}) }, "mem: DRAM access [0x2000040,0x2000041) beyond 32 MB window"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDRAM()
			defer func() {
				if got := recover(); got != tc.want {
					t.Fatalf("panic = %v, want %q", got, tc.want)
				}
				if n := allocatedPages(d); n != 0 {
					t.Fatalf("a rejected access allocated %d pages", n)
				}
			}()
			tc.access(d)
		})
	}
}

// FuzzDRAMPaged runs a random sequence of writes, reads and Resets
// against a sparse map reference model of the 32 MB window. Each op is
// 8 bytes of input: a kind byte, a length byte, a 24-bit offset that
// is stretched over the window, a byte that may snap the offset to
// within 4 bytes of a page boundary (so straddling accesses are
// common) and a data seed.
func FuzzDRAMPaged(f *testing.F) {
	f.Add([]byte{0, 8, 0xff, 0xff, 0, 0, 0, 0, 1, 8, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 1, 0, 3, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 4, 0, 1, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 8*64 {
			ops = ops[:8*64] // 64 ops: long enough, and bounds the pages touched
		}
		d := NewDRAM()
		ref := map[int]byte{}
		var accessed uint64
		for len(ops) >= 8 {
			kind, n := ops[0]%5, int(ops[1])
			off := (int(ops[2]) | int(ops[3])<<8 | int(ops[4])<<16) << 1
			if ops[5]&8 != 0 {
				off = off&^dramPageMask + int(ops[5]%8) - 4
			}
			off = min(max(off, 0), DRAMSize-max(n, 4))
			seed := ops[6]
			ops = ops[8:]
			switch kind {
			case 0: // Write
				src := make([]byte, n)
				for i := range src {
					src[i] = seed + byte(i)
					ref[off+i] = src[i]
				}
				d.Write(Addr(off), src)
				accessed += uint64(n)
			case 1: // Read
				got := make([]byte, n)
				d.Read(Addr(off), got)
				for i, b := range got {
					if b != ref[off+i] {
						t.Fatalf("Read byte %#x = %d, want %d", off+i, b, ref[off+i])
					}
				}
				accessed += uint64(n)
			case 2: // Store32
				v := uint32(seed) * 0x01010101
				d.Store32(Addr(off), v)
				for i := 0; i < 4; i++ {
					ref[off+i] = byte(v >> (8 * i))
				}
				accessed += 4
			case 3: // Load32
				want := uint32(ref[off]) | uint32(ref[off+1])<<8 | uint32(ref[off+2])<<16 | uint32(ref[off+3])<<24
				if got := d.Load32(Addr(off)); got != want {
					t.Fatalf("Load32(%#x) = %#x, want %#x", off, got, want)
				}
				accessed += 4
			case 4: // Reset
				d.Reset()
				clear(ref)
				accessed = 0
			}
			if d.AccessedBytes() != accessed {
				t.Fatalf("AccessedBytes = %d, want %d", d.AccessedBytes(), accessed)
			}
		}
		// The window holds exactly the model's bytes: each one matches,
		// and each page has no non-zero byte the model lacks.
		nonzero := map[int]int{}
		for a, want := range ref {
			var got byte
			if pg := d.pages[a>>dramPageShift]; pg != nil {
				got = pg[a&dramPageMask]
			}
			if got != want {
				t.Fatalf("byte %#x = %d, want %d", a, got, want)
			}
			if want != 0 {
				nonzero[a>>dramPageShift]++
			}
		}
		for p, pg := range d.pages {
			if pg == nil {
				continue
			}
			n := 0
			for _, b := range pg {
				if b != 0 {
					n++
				}
			}
			if n != nonzero[p] {
				t.Fatalf("page %d holds %d non-zero bytes, want %d", p, n, nonzero[p])
			}
		}
	})
}

func TestLayoutReset(t *testing.T) {
	l := NewLayout()
	l.MustPlaceAt("a", 0x4000, 128)
	l.Reset()
	if l.Used() != 0 || len(l.Regions()) != 0 {
		t.Fatal("Reset left reservations")
	}
	if _, err := l.PlaceAt("a", 0x4000, 128); err != nil {
		t.Fatalf("re-placing after Reset: %v", err)
	}
}
