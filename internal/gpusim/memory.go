package gpusim

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Memory stripe geometry: addresses are striped across a small mutex
// array at 128-byte (default cache line) granularity, so kernel accesses
// to different lines proceed in parallel while same-line accesses from
// concurrently simulated SMs serialize.
const (
	memStripeShift = 7
	memStripeCount = 64 // power of two
)

// Memory page geometry: global memory is backed by 64 KiB pages that are
// allocated on first write, so a device costs nothing until a kernel or
// host touches an address, and then only the pages it touched.
const (
	memPageShift = 16
	memPageSize  = 1 << memPageShift
	memPageMask  = memPageSize - 1
)

type memPage = [memPageSize]byte

// Memory is the device's global memory: a flat byte address space backed
// by pages allocated on first write. Kernels address it with byte
// addresses; hosts stage inputs and read back outputs through the typed
// helpers. All multi-byte values are little-endian, and a page nobody has
// written reads as zeros.
//
// The kernel-visible accessors (Load, Store, AtomicAdd) are safe for
// concurrent use by the parallel per-SM launch path via lock striping by
// address range. A page is published with an atomic compare-and-swap, so
// two SMs whose first writes to a page fall under different stripes
// agree on one page and neither write is lost. The host staging helpers
// (WriteU32s, ReadF64s, ...) are not synchronized: call them only while
// no kernel is running.
type Memory struct {
	size    uint64
	pages   []atomic.Pointer[memPage]
	stripes [memStripeCount]sync.Mutex
}

// NewMemory creates size bytes of zeroed device memory. No page is
// allocated until it is first written.
func NewMemory(size uint64) *Memory {
	return &Memory{size: size, pages: make([]atomic.Pointer[memPage], (size+memPageMask)>>memPageShift)}
}

// lockSpan acquires the stripe lock(s) covering [addr, addr+n). An access
// can straddle a stripe boundary, so up to two stripes are taken, always
// in ascending index order to stay deadlock-free. unlockSpan releases.
func (m *Memory) lockSpan(addr, n uint64) (a, b *sync.Mutex) {
	i := (addr >> memStripeShift) % memStripeCount
	j := ((addr + n - 1) >> memStripeShift) % memStripeCount
	if i == j {
		a = &m.stripes[i]
		a.Lock()
		return a, nil
	}
	if j < i {
		i, j = j, i
	}
	a, b = &m.stripes[i], &m.stripes[j]
	a.Lock()
	b.Lock()
	return a, b
}

func unlockSpan(a, b *sync.Mutex) {
	if b != nil {
		b.Unlock()
	}
	a.Unlock()
}

// Size returns the capacity in bytes.
func (m *Memory) Size() uint64 { return m.size }

func (m *Memory) check(addr, n uint64) error {
	if addr+n > m.size || addr+n < addr {
		return fmt.Errorf("gpusim: memory access [%#x,%#x) outside %#x-byte device memory",
			addr, addr+n, m.size)
	}
	return nil
}

// touch returns page i, allocating it on first use. Racing first touches
// each allocate, but only one compare-and-swap wins and every caller
// returns the winner's page; nothing is written to a page before it is
// published.
func (m *Memory) touch(i uint64) *memPage {
	if p := m.pages[i].Load(); p != nil {
		return p
	}
	if p := new(memPage); m.pages[i].CompareAndSwap(nil, p) {
		return p
	}
	return m.pages[i].Load()
}

// copyOut fills b from [addr, addr+len(b)), reading untouched pages as
// zeros without allocating them. The range must be in bounds.
func (m *Memory) copyOut(addr uint64, b []byte) {
	for len(b) > 0 {
		off := addr & memPageMask
		n := min(uint64(len(b)), memPageSize-off)
		if p := m.pages[addr>>memPageShift].Load(); p != nil {
			copy(b[:n], p[off:])
		} else {
			clear(b[:n])
		}
		b, addr = b[n:], addr+n
	}
}

// copyIn writes b to [addr, addr+len(b)), allocating pages as needed.
// The range must be in bounds.
func (m *Memory) copyIn(addr uint64, b []byte) {
	for len(b) > 0 {
		n := copy(m.touch(addr >> memPageShift)[addr&memPageMask:], b)
		b, addr = b[n:], addr+uint64(n)
	}
}

// load reads an n-byte word; the caller holds its stripes.
func (m *Memory) load(addr, n uint64) uint64 {
	off := addr & memPageMask
	if off+n > memPageSize {
		var buf [8]byte
		m.copyOut(addr, buf[:n])
		return loadLE(buf[:], n)
	}
	p := m.pages[addr>>memPageShift].Load()
	if p == nil {
		return 0
	}
	return loadLE(p[off:], n)
}

// store writes an n-byte word; the caller holds its stripes.
func (m *Memory) store(addr, n, val uint64) {
	off := addr & memPageMask
	if off+n > memPageSize {
		var buf [8]byte
		storeLE(buf[:], n, val)
		m.copyIn(addr, buf[:n])
		return
	}
	storeLE(m.touch(addr >> memPageShift)[off:], n, val)
}

// Load reads n (4 or 8) bytes at addr.
func (m *Memory) Load(addr, n uint64) (uint64, error) {
	if n != 4 && n != 8 {
		return 0, fmt.Errorf("gpusim: unsupported access size %d", n)
	}
	if err := m.check(addr, n); err != nil {
		return 0, err
	}
	a, b := m.lockSpan(addr, n)
	v := m.load(addr, n)
	unlockSpan(a, b)
	return v, nil
}

// Store writes n (4 or 8) bytes at addr.
func (m *Memory) Store(addr, n, val uint64) error {
	if n != 4 && n != 8 {
		return fmt.Errorf("gpusim: unsupported access size %d", n)
	}
	if err := m.check(addr, n); err != nil {
		return err
	}
	a, b := m.lockSpan(addr, n)
	m.store(addr, n, val)
	unlockSpan(a, b)
	return nil
}

// AtomicAdd adds delta to the n (4 or 8) byte integer at addr and returns
// the value it held before. The stripe lock is held across the whole
// read-modify-write, so concurrent atomics from different SMs never lose
// updates; because addition commutes, the final memory state is
// independent of SM interleaving.
func (m *Memory) AtomicAdd(addr, n, delta uint64) (uint64, error) {
	if n != 4 && n != 8 {
		return 0, fmt.Errorf("gpusim: unsupported access size %d", n)
	}
	if err := m.check(addr, n); err != nil {
		return 0, err
	}
	a, b := m.lockSpan(addr, n)
	old := m.load(addr, n)
	m.store(addr, n, old+delta)
	unlockSpan(a, b)
	return old, nil
}

// --- Host-side staging helpers ---

// WriteU32s stages a []uint32 at addr.
func (m *Memory) WriteU32s(addr uint64, vals []uint32) error {
	if err := m.check(addr, uint64(len(vals))*4); err != nil {
		return err
	}
	buf := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	m.copyIn(addr, buf)
	return nil
}

// ReadU32s reads n uint32 values from addr.
func (m *Memory) ReadU32s(addr uint64, n int) ([]uint32, error) {
	if err := m.check(addr, uint64(n)*4); err != nil {
		return nil, err
	}
	buf := make([]byte, 4*n)
	m.copyOut(addr, buf)
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return out, nil
}

// WriteF32s stages a []float32 at addr.
func (m *Memory) WriteF32s(addr uint64, vals []float32) error {
	u := make([]uint32, len(vals))
	for i, v := range vals {
		u[i] = f32bits(v)
	}
	return m.WriteU32s(addr, u)
}

// ReadF32s reads n float32 values from addr.
func (m *Memory) ReadF32s(addr uint64, n int) ([]float32, error) {
	u, err := m.ReadU32s(addr, n)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = f32fromBits(u[i])
	}
	return out, nil
}

// WriteF64s stages a []float64 at addr.
func (m *Memory) WriteF64s(addr uint64, vals []float64) error {
	u := make([]uint64, len(vals))
	for i, v := range vals {
		u[i] = f64bits(v)
	}
	return m.WriteU64s(addr, u)
}

// ReadF64s reads n float64 values from addr.
func (m *Memory) ReadF64s(addr uint64, n int) ([]float64, error) {
	u, err := m.ReadU64s(addr, n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = f64fromBits(u[i])
	}
	return out, nil
}

// WriteU64s stages a []uint64 at addr.
func (m *Memory) WriteU64s(addr uint64, vals []uint64) error {
	if err := m.check(addr, uint64(len(vals))*8); err != nil {
		return err
	}
	buf := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	m.copyIn(addr, buf)
	return nil
}

// ReadU64s reads n uint64 values from addr.
func (m *Memory) ReadU64s(addr uint64, n int) ([]uint64, error) {
	if err := m.check(addr, uint64(n)*8); err != nil {
		return nil, err
	}
	buf := make([]byte, 8*n)
	m.copyOut(addr, buf)
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return out, nil
}
