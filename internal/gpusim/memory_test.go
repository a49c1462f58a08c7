package gpusim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// pagesAllocated counts the pages a Memory has materialized.
func pagesAllocated(m *Memory) int {
	n := 0
	for i := range m.pages {
		if m.pages[i].Load() != nil {
			n++
		}
	}
	return n
}

// flatMem is the reference model for Memory: one eagerly allocated
// []byte with the bounds and size rules of the original flat memory.
type flatMem []byte

func (f flatMem) check(addr, n uint64) error {
	if addr+n > uint64(len(f)) || addr+n < addr {
		return fmt.Errorf("gpusim: memory access [%#x,%#x) outside %#x-byte device memory",
			addr, addr+n, len(f))
	}
	return nil
}

func (f flatMem) word(addr, n uint64) (uint64, error) {
	if n != 4 && n != 8 {
		return 0, fmt.Errorf("gpusim: unsupported access size %d", n)
	}
	if err := f.check(addr, n); err != nil {
		return 0, err
	}
	return loadLE(f[addr:], n), nil
}

func sameErr(t *testing.T, op string, got, want error) bool {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: error %v, reference %v", op, got, want)
	}
	return want == nil
}

// TestMemoryMatchesFlatReference drives random kernel accesses and typed
// host transfers against paged memory and a flat []byte model side by
// side. Addresses cluster at page boundaries, 128-byte stripe
// boundaries and the end of memory (whose last page is partial); sizes
// include invalid ones. Values, errors and error texts must match, and
// no read may allocate a page.
func TestMemoryMatchesFlatReference(t *testing.T) {
	const size = 3*memPageSize + 1000
	m := NewMemory(size)
	ref := make(flatMem, size)
	if m.Size() != size {
		t.Fatalf("Size = %d, want %d", m.Size(), size)
	}
	rng := rand.New(rand.NewSource(7))
	anchors := []uint64{0, memPageSize, 2 * memPageSize, 3 * memPageSize, 128, 5 * 128, memPageSize + 128, size}
	addr := func() uint64 {
		switch rng.Intn(8) {
		case 0:
			return rng.Uint64() // far out of range, maybe overflowing
		case 1, 2:
			return uint64(rng.Intn(size + 64))
		default:
			a := anchors[rng.Intn(len(anchors))]
			return a + uint64(rng.Intn(24)) - 12
		}
	}
	size48 := func() uint64 {
		if rng.Intn(10) == 0 {
			return uint64(rng.Intn(10)) // mostly invalid sizes
		}
		return 4 << rng.Intn(2)
	}
	count := func() int { return rng.Intn(40) }

	for step := 0; step < 20000; step++ {
		a := addr()
		before := pagesAllocated(m)
		read := true
		op := rng.Intn(11)
		name := fmt.Sprintf("step %d op %d addr %#x", step, op, a)
		switch op {
		case 0: // Load
			n := size48()
			got, err := m.Load(a, n)
			want, werr := ref.word(a, n)
			if sameErr(t, name, err, werr) && got != want {
				t.Fatalf("%s: Load %d = %#x, reference %#x", name, n, got, want)
			}
		case 1: // Store
			n, v := size48(), rng.Uint64()
			err := m.Store(a, n, v)
			_, werr := ref.word(a, n)
			if sameErr(t, name, err, werr) {
				storeLE(ref[a:], n, v)
			}
			read = false
		case 2: // AtomicAdd
			n, v := size48(), rng.Uint64()
			got, err := m.AtomicAdd(a, n, v)
			want, werr := ref.word(a, n)
			if sameErr(t, name, err, werr) {
				if got != want {
					t.Fatalf("%s: AtomicAdd old %#x, reference %#x", name, got, want)
				}
				storeLE(ref[a:], n, want+v)
			}
			read = false
		case 3: // WriteU32s
			vals := make([]uint32, count())
			for i := range vals {
				vals[i] = rng.Uint32()
			}
			werr := ref.check(a, uint64(len(vals))*4)
			if sameErr(t, name, m.WriteU32s(a, vals), werr) {
				for i, v := range vals {
					binary.LittleEndian.PutUint32(ref[a+uint64(i)*4:], v)
				}
			}
			read = false
		case 4: // WriteU64s
			vals := make([]uint64, count())
			for i := range vals {
				vals[i] = rng.Uint64()
			}
			werr := ref.check(a, uint64(len(vals))*8)
			if sameErr(t, name, m.WriteU64s(a, vals), werr) {
				for i, v := range vals {
					binary.LittleEndian.PutUint64(ref[a+uint64(i)*8:], v)
				}
			}
			read = false
		case 5: // WriteF32s
			vals := make([]float32, count())
			for i := range vals {
				vals[i] = float32(rng.NormFloat64())
			}
			werr := ref.check(a, uint64(len(vals))*4)
			if sameErr(t, name, m.WriteF32s(a, vals), werr) {
				for i, v := range vals {
					binary.LittleEndian.PutUint32(ref[a+uint64(i)*4:], math.Float32bits(v))
				}
			}
			read = false
		case 6: // WriteF64s
			vals := make([]float64, count())
			for i := range vals {
				vals[i] = rng.NormFloat64()
			}
			werr := ref.check(a, uint64(len(vals))*8)
			if sameErr(t, name, m.WriteF64s(a, vals), werr) {
				for i, v := range vals {
					binary.LittleEndian.PutUint64(ref[a+uint64(i)*8:], math.Float64bits(v))
				}
			}
			read = false
		case 7: // ReadU32s
			n := count()
			got, err := m.ReadU32s(a, n)
			if sameErr(t, name, err, ref.check(a, uint64(n)*4)) {
				for i, v := range got {
					if want := binary.LittleEndian.Uint32(ref[a+uint64(i)*4:]); v != want {
						t.Fatalf("%s: ReadU32s[%d] = %#x, reference %#x", name, i, v, want)
					}
				}
			}
		case 8: // ReadU64s
			n := count()
			got, err := m.ReadU64s(a, n)
			if sameErr(t, name, err, ref.check(a, uint64(n)*8)) {
				for i, v := range got {
					if want := binary.LittleEndian.Uint64(ref[a+uint64(i)*8:]); v != want {
						t.Fatalf("%s: ReadU64s[%d] = %#x, reference %#x", name, i, v, want)
					}
				}
			}
		case 9: // ReadF32s
			n := count()
			got, err := m.ReadF32s(a, n)
			if sameErr(t, name, err, ref.check(a, uint64(n)*4)) {
				for i, v := range got {
					if want := binary.LittleEndian.Uint32(ref[a+uint64(i)*4:]); math.Float32bits(v) != want {
						t.Fatalf("%s: ReadF32s[%d] bits %#x, reference %#x", name, i, math.Float32bits(v), want)
					}
				}
			}
		case 10: // ReadF64s
			n := count()
			got, err := m.ReadF64s(a, n)
			if sameErr(t, name, err, ref.check(a, uint64(n)*8)) {
				for i, v := range got {
					if want := binary.LittleEndian.Uint64(ref[a+uint64(i)*8:]); math.Float64bits(v) != want {
						t.Fatalf("%s: ReadF64s[%d] bits %#x, reference %#x", name, i, math.Float64bits(v), want)
					}
				}
			}
		}
		if after := pagesAllocated(m); read && after != before {
			t.Fatalf("%s: a read allocated %d page(s)", name, after-before)
		}
	}
	whole, err := m.ReadU64s(0, size/8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range whole {
		if want := binary.LittleEndian.Uint64(ref[i*8:]); v != want {
			t.Fatalf("final memory word %d = %#x, reference %#x", i, v, want)
		}
	}
	if pagesAllocated(m) != len(m.pages) {
		t.Errorf("20000 mixed steps touched only %d of %d pages", pagesAllocated(m), len(m.pages))
	}
}

// TestMemoryUntouchedReadsAllocateNothing pins the lazy half of paging:
// kernel loads and host reads anywhere in a fresh memory see zeros and
// leave every page unallocated; the first store allocates exactly one.
func TestMemoryUntouchedReadsAllocateNothing(t *testing.T) {
	m := NewMemory(64 << 20)
	for _, a := range []uint64{0, memPageSize - 4, memPageSize - 2, 40 << 20, 64<<20 - 8} {
		if v, err := m.Load(a, 8); err != nil || v != 0 {
			t.Errorf("Load(%#x) = %d, %v; want 0", a, v, err)
		}
	}
	u, err := m.ReadU32s(memPageSize-64, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range u {
		if v != 0 {
			t.Fatalf("ReadU32s[%d] = %d on untouched memory", i, v)
		}
	}
	if n := pagesAllocated(m); n != 0 {
		t.Fatalf("reads allocated %d pages", n)
	}
	if err := m.Store(5*memPageSize+16, 4, 1); err != nil {
		t.Fatal(err)
	}
	if n := pagesAllocated(m); n != 1 {
		t.Fatalf("one store allocated %d pages, want 1", n)
	}
}

// TestMemoryConcurrentFirstTouch races eight goroutines onto one fresh
// page, each through its own stripe, over many fresh memories. A lost
// page publication would drop some goroutine's writes; run under -race
// it also checks that publishing a page orders its zeroing before use.
func TestMemoryConcurrentFirstTouch(t *testing.T) {
	const workers, rounds, iters = 8, 200, 4
	page := uint64(3)
	base := page * memPageSize
	for r := 0; r < rounds; r++ {
		m := NewMemory(8 * memPageSize)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g uint64) {
				defer wg.Done()
				<-start
				a := base + g*(1<<memStripeShift)
				for i := 0; i < iters; i++ {
					if g%2 == 0 {
						if err := m.Store(a+8*uint64(i), 8, g<<8|uint64(i)); err != nil {
							t.Error(err)
						}
					} else if _, err := m.AtomicAdd(a, 8, g); err != nil {
						t.Error(err)
					}
				}
			}(uint64(g))
		}
		close(start)
		wg.Wait()
		if n := pagesAllocated(m); n != 1 {
			t.Fatalf("round %d: %d pages allocated, want 1", r, n)
		}
		for g := uint64(0); g < workers; g++ {
			a := base + g*(1<<memStripeShift)
			for i := uint64(0); i < iters; i++ {
				want := g<<8 | i
				if g%2 == 1 {
					if i > 0 {
						break
					}
					want = g * iters
				}
				if v, _ := m.Load(a+8*i, 8); v != want {
					t.Fatalf("round %d: worker %d word %d = %#x, want %#x", r, g, i, v, want)
				}
			}
		}
	}
}
