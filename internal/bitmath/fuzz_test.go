package bitmath

import (
	"math/big"
	"testing"
)

// FuzzCarriesAgainstBigInt cross-checks the entire carry machinery
// against an independent oracle: arbitrary-precision addition. Any
// divergence between the packed boundary carries / sliced reassembly and
// big.Int arithmetic is a real bug in the foundation everything else
// stands on.
func FuzzCarriesAgainstBigInt(f *testing.F) {
	f.Add(uint64(0xFF), uint64(0x01), false)
	f.Add(^uint64(0), uint64(1), true)
	f.Add(uint64(0x8080808080808080), uint64(0x8080808080808080), false)
	f.Fuzz(func(t *testing.T, a, b uint64, cinRaw bool) {
		cin := uint(0)
		if cinRaw {
			cin = 1
		}
		exact := new(big.Int).Add(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		exact.Add(exact, big.NewInt(int64(cin)))

		// Full-width sum and carry-out.
		sum, cout := AddWithCarry(a, b, cin, 64)
		wantSum := new(big.Int).And(exact, new(big.Int).SetUint64(^uint64(0))).Uint64()
		if sum != wantSum {
			t.Fatalf("sum %#x vs big.Int %#x", sum, wantSum)
		}
		if (exact.BitLen() > 64) != (cout == 1) {
			t.Fatalf("carry-out %d vs big.Int bitlen %d", cout, exact.BitLen())
		}
		// Each boundary carry is bit k of the exact sum of the low k bits,
		// at every slice width the simulator accepts (plus 16) and every
		// unit width; no bit above the last boundary is set.
		for _, width := range []uint{24, 32, 52, 64} {
			wa, wb := a&Mask(width), b&Mask(width)
			for _, sliceBits := range []uint{1, 2, 3, 4, 5, 6, 7, 8, 16} {
				packed := BoundaryCarriesPacked(wa, wb, cin, width, sliceBits)
				n := NumSlices(width, sliceBits)
				if packed>>(n-1) != 0 {
					t.Fatalf("width %d sliceBits %d: bits above boundary %d set in %#x", width, sliceBits, n-2, packed)
				}
				for i := uint(1); i < n; i++ {
					k := i * sliceBits
					lowMask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), k), big.NewInt(1))
					lowSum := new(big.Int).Add(
						new(big.Int).And(new(big.Int).SetUint64(wa), lowMask),
						new(big.Int).And(new(big.Int).SetUint64(wb), lowMask))
					lowSum.Add(lowSum, big.NewInt(int64(cin)))
					want := lowSum.Bit(int(k))
					if uint((packed>>(i-1))&1) != want {
						t.Fatalf("width %d boundary %d (sliceBits %d): got %d want %d",
							width, i, sliceBits, (packed>>(i-1))&1, want)
					}
				}
			}
		}
	})
}
