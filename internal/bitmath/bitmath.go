// Package bitmath provides the bit-level arithmetic primitives that the
// rest of the ST² stack is built on: extracting fixed-width slices from
// 64-bit operands, computing the exact carries that a full-width addition
// produces at arbitrary bit boundaries, and measuring carry-propagation
// chain lengths.
//
// Everything in this package is the *ground truth* against which the
// speculative machinery in internal/adder and internal/speculate is
// validated: a sliced adder is correct exactly when its final result and
// boundary carries match the ones computed here.
package bitmath

import "math/bits"

// MaxWidth is the widest addition the package reasons about, in bits.
const MaxWidth = 64

// Mask returns a mask with the low n bits set. n must be in [0, 64].
func Mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// Slice extracts width bits of x starting at bit lo (inclusive).
// Bits beyond bit 63 read as zero.
func Slice(x uint64, lo, width uint) uint64 {
	if lo >= 64 {
		return 0
	}
	return (x >> lo) & Mask(width)
}

// CarryInto returns the carry that ripples *into* bit position k when
// computing a + b + cin over the full 64-bit range. CarryInto(a, b, cin, 0)
// is cin itself; CarryInto(a, b, cin, 64) is the carry-out of the whole
// 64-bit addition.
func CarryInto(a, b uint64, cin uint, k uint) uint {
	if k == 0 {
		return cin & 1
	}
	if k > 64 {
		k = 64
	}
	m := Mask(k)
	la := a & m
	lb := b & m
	sum, c1 := bits.Add64(la, lb, uint64(cin&1))
	_ = sum
	if k == 64 {
		return uint(c1)
	}
	// For k < 64 the carry out of bit k-1 is bit k of the exact sum
	// la + lb + cin, which cannot overflow 64 bits when k < 64.
	exact := la + lb + uint64(cin&1)
	return uint((exact >> k) & 1)
}

// BoundaryCarries returns the carries entering each slice boundary of an
// addition split into ceil(width/sliceBits) slices. For width=64 and
// sliceBits=8 it returns 7 bits: the carry into bits 8, 16, ..., 56 — the
// signals an ST² predictor must guess. Boundary i of the result corresponds
// to the carry into slice i+1, matching the paper's Cpred[0..6] naming.
func BoundaryCarries(a, b uint64, cin uint, width, sliceBits uint) []uint {
	n := NumSlices(width, sliceBits)
	if n <= 1 {
		return nil
	}
	out := make([]uint, n-1)
	for i := uint(1); i < n; i++ {
		out[i-1] = CarryInto(a, b, cin, i*sliceBits)
	}
	return out
}

// BoundaryCarriesPacked is BoundaryCarries with the result packed into a
// uint64, bit i holding the carry into slice i+1. Bit m of a^b^(a+b+cin)
// is the carry into bit m, so the packed boundary carries are that carry
// vector gathered at bits i·sliceBits — read as slice MSBs of the vector
// shifted down one bit. The ST² adder model derives its ActualCarries the
// same way. It allocates nothing and is the form used on the simulator
// fast path. Widths above MaxWidth are treated as MaxWidth.
func BoundaryCarriesPacked(a, b uint64, cin uint, width, sliceBits uint) uint64 {
	n := NumSlices(min(width, MaxWidth), sliceBits)
	if n <= 1 {
		return 0
	}
	return GatherSliceMSBs((a^b^(a+b+uint64(cin&1)))>>1, sliceBits, n-1)
}

// NumSlices returns how many sliceBits-wide slices cover width bits
// (the last slice may be partial, as with the 52-bit DPU mantissa on
// 8-bit slices → 7 slices).
func NumSlices(width, sliceBits uint) uint {
	if sliceBits == 0 || width == 0 {
		return 0
	}
	return (width + sliceBits - 1) / sliceBits
}

// CarryChainLength returns the length, in bits, of the longest
// carry-propagation chain triggered when computing a + b + cin over width
// bits: the largest number of consecutive propagate positions traversed by
// a live carry (a generated carry that immediately dies contributes 0).
// It is the quantity VaLHALLA/CASA correlate against operand magnitude.
func CarryChainLength(a, b uint64, cin uint, width uint) uint {
	if width == 0 {
		return 0
	}
	if width > 64 {
		width = 64
	}
	m := Mask(width)
	a &= m
	b &= m
	gen := a & b  // positions that generate a carry
	prop := a ^ b // positions that propagate an incoming carry
	var longest, cur uint
	carry := cin & 1
	var origin int = -1 // bit where the live carry was generated; -1 = none
	if carry == 1 {
		origin = 0 // injected carry behaves as if generated below bit 0
	}
	for i := uint(0); i < width; i++ {
		g := uint((gen >> i) & 1)
		p := uint((prop >> i) & 1)
		if carry == 1 && p == 1 {
			cur = i + 1 - uint(origin)
			if cur > longest {
				longest = cur
			}
		}
		// Next carry state.
		if g == 1 {
			carry = 1
			origin = int(i + 1)
		} else if p == 0 {
			carry = 0
			origin = -1
		}
		// else: propagate, carry and origin unchanged.
	}
	return longest
}

// SliceOperands decomposes a and b into their per-slice operand pairs for a
// width-bit addition with sliceBits-wide slices. Slice i covers bits
// [i*sliceBits, min((i+1)*sliceBits, width)).
func SliceOperands(a, b uint64, width, sliceBits uint) (as, bs []uint64) {
	n := NumSlices(width, sliceBits)
	as = make([]uint64, n)
	bs = make([]uint64, n)
	for i := uint(0); i < n; i++ {
		lo := i * sliceBits
		w := sliceBits
		if lo+w > width {
			w = width - lo
		}
		as[i] = Slice(a, lo, w)
		bs[i] = Slice(b, lo, w)
	}
	return as, bs
}

// SliceWidthAt returns the width in bits of slice i for a width-bit value
// split into sliceBits-wide slices.
func SliceWidthAt(i, width, sliceBits uint) uint {
	lo := i * sliceBits
	if lo >= width {
		return 0
	}
	if lo+sliceBits > width {
		return width - lo
	}
	return sliceBits
}

// AddWithCarry adds the low `width` bits of a and b with carry-in cin and
// returns the width-bit sum plus the carry out of bit width-1.
func AddWithCarry(a, b uint64, cin uint, width uint) (sum uint64, cout uint) {
	if width == 0 {
		return 0, cin & 1
	}
	if width >= 64 {
		s, c := bits.Add64(a, b, uint64(cin&1))
		return s, uint(c)
	}
	m := Mask(width)
	exact := (a & m) + (b & m) + uint64(cin&1)
	return exact & m, uint((exact >> width) & 1)
}

// MSB returns bit (width-1) of x, the "peek" bit the ST² static predictor
// inspects on the previous slice's operands.
func MSB(x uint64, width uint) uint {
	if width == 0 {
		return 0
	}
	return uint((x >> (width - 1)) & 1)
}

// OnesComplement returns ^x truncated to width bits, the operand
// transformation a subtraction applies to its second input.
func OnesComplement(x uint64, width uint) uint64 {
	return (^x) & Mask(width)
}

// SignExtend interprets the low `width` bits of x as a two's-complement
// integer and sign-extends it to 64 bits.
func SignExtend(x uint64, width uint) int64 {
	if width == 0 || width >= 64 {
		return int64(x)
	}
	shift := 64 - width
	return int64(x<<shift) >> shift
}

// PopCount64 reports the number of set bits. Thin wrapper kept so callers
// outside this package do not need math/bits directly.
func PopCount64(x uint64) int { return bits.OnesCount64(x) }

// NonZeroBit returns 1 when x != 0 and 0 otherwise, without a branch —
// the judge primitive of the branchless evaluation kernels.
func NonZeroBit(x uint64) uint64 { return (x | -x) >> 63 }

// GatherMSB8 collects the most-significant bit of each 8-bit byte of x
// into the low 8 bits of the result: output bit k is bit 8k+7 of x. For
// 8-bit slices this turns the per-boundary MSB walk (Peek's agree/both
// tests, 7 shift-and-mask steps for a 64-bit adder) into one mask, one
// multiply and one shift. The multiplier places byte k's MSB at bit
// 49−7k+8k+7 = 56+k; the partial products cannot carry into the top
// byte because each lands on a distinct bit.
func GatherMSB8(x uint64) uint64 {
	return (x & 0x8080808080808080) * 0x0002040810204081 >> 56
}

// GatherSliceMSBs collects the most-significant bit of each of the low n
// sliceBits-wide slices of x into the low n bits of the result: output
// bit j is bit (j+1)·sliceBits−1 of x. n·sliceBits must not exceed 64.
// 8-bit slices, the paper's design point, take the one-multiply
// GatherMSB8; other widths walk the n slices.
func GatherSliceMSBs(x uint64, sliceBits, n uint) uint64 {
	if sliceBits == 8 {
		return GatherMSB8(x) & Mask(n)
	}
	var out uint64
	for j := uint(0); j < n; j++ {
		out |= (x >> ((j+1)*sliceBits - 1) & 1) << j
	}
	return out
}
