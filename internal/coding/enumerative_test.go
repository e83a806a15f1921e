package coding

import (
	"math/bits"
	"math/rand"
	"testing"
)

// The scalar rank/unrank loops below are the oracle for the table-driven
// kernels in enumerative.go: a slice-of-slices Pascal triangle and one
// data-dependent branch per wire position, exactly the textbook
// combinatorial-number-system walk.

// oracleBinomTab[n][k] = C(n, k) for 0 ≤ k ≤ n ≤ enumMaxWires.
var oracleBinomTab = func() [][]uint64 {
	t := make([][]uint64, enumMaxWires+1)
	for n := range t {
		t[n] = make([]uint64, n+1)
		t[n][0] = 1
		for k := 1; k <= n; k++ {
			if k == n {
				t[n][k] = 1
				continue
			}
			t[n][k] = t[n-1][k-1] + t[n-1][k]
		}
	}
	return t
}()

// oracleBinom returns C(n, k), and 0 outside the triangle.
func oracleBinom(n, k int) uint64 {
	if k < 0 || n < 0 || k > n {
		return 0
	}
	return oracleBinomTab[n][k]
}

// oracleBallSize returns Σ_{i=0..t} C(n, i).
func oracleBallSize(n, t int) uint64 {
	if t >= n {
		return 1 << uint(n)
	}
	var s uint64
	for i := 0; i <= t; i++ {
		s += oracleBinom(n, i)
	}
	return s
}

// oracleCwUnrank returns the m-th n-bit word of weight w in increasing
// numeric order.
func oracleCwUnrank(n, w int, m uint64) uint64 {
	var word uint64
	for p := n - 1; p >= 0 && w > 0; p-- {
		// C(p, w) words of weight w keep bit p clear.
		if c := oracleBinom(p, w); m >= c {
			word |= 1 << uint(p)
			m -= c
			w--
		}
	}
	return word
}

// oracleCwRank inverts oracleCwUnrank for an n-bit word.
func oracleCwRank(n int, word uint64) uint64 {
	var m uint64
	w := bits.OnesCount64(word)
	for p := n - 1; p >= 0 && w > 0; p-- {
		if word&(1<<uint(p)) != 0 {
			m += oracleBinom(p, w)
			w--
		}
	}
	return m
}

// oracleBallUnrank returns the idx-th n-bit word in (weight, then
// numeric value) order.
func oracleBallUnrank(n int, idx uint64) uint64 {
	w := 0
	for {
		c := oracleBinom(n, w)
		if idx < c {
			return oracleCwUnrank(n, w, idx)
		}
		idx -= c
		w++
	}
}

// oracleBallRank inverts oracleBallUnrank.
func oracleBallRank(n int, word uint64) uint64 {
	w := bits.OnesCount64(word)
	return oracleBallSize(n, w-1) + oracleCwRank(n, word)
}

// checkBallIndex compares both directions of the table-driven kernels
// with the oracle at one (n, idx).
func checkBallIndex(t *testing.T, n int, idx uint64) {
	t.Helper()
	want := oracleBallUnrank(n, idx)
	got := ballUnrank(n, idx)
	if got != want {
		t.Fatalf("ballUnrank(%d, %d) = %#x, oracle %#x", n, idx, got, want)
	}
	if r := ballRank(n, got); r != idx {
		t.Fatalf("ballRank(%d, %#x) = %d, want %d", n, got, r, idx)
	}
	if r := oracleBallRank(n, want); r != idx {
		t.Fatalf("oracle rank(%d, %#x) = %d, want %d", n, want, r, idx)
	}
}

// TestEnumTablesMatchOracle pins the flat tables against the Pascal
// triangle: binomTab agrees inside the triangle and is 0 above it, and
// ballCum/ballSize agree with the summed ball sizes.
func TestEnumTablesMatchOracle(t *testing.T) {
	for n := 0; n <= enumMaxWires; n++ {
		for k := 0; k < 64; k++ {
			if got, want := binomTab[n<<6|k], oracleBinom(n, k); got != want {
				t.Fatalf("binomTab[%d][%d] = %d, want %d", n, k, got, want)
			}
			if got, want := ballCum[n][k], oracleBallSize(n, k-1); got != want {
				t.Fatalf("ballCum[%d][%d] = %d, want %d", n, k, got, want)
			}
		}
		for tt := -1; tt <= n+1; tt++ {
			if got, want := ballSize(n, tt), oracleBallSize(n, tt); got != want {
				t.Fatalf("ballSize(%d, %d) = %d, want %d", n, tt, got, want)
			}
		}
	}
}

// TestBallKernelsMatchOracleExhaustive checks every index of every ball
// up to 16 wires.
func TestBallKernelsMatchOracleExhaustive(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for idx := uint64(0); idx < 1<<uint(n); idx++ {
			checkBallIndex(t, n, idx)
		}
	}
}

// TestBallKernelsMatchOracleSampled covers every width up to
// enumMaxWires at random indices, both sides of each weight-class
// boundary and the last index, where an off-by-one in the class search
// or the early exit would show.
func TestBallKernelsMatchOracleSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= enumMaxWires; n++ {
		size := uint64(1) << uint(n)
		for i := 0; i < 2000; i++ {
			checkBallIndex(t, n, rng.Uint64()&(size-1))
		}
		for w := 1; w <= n; w++ {
			checkBallIndex(t, n, ballCum[n][w]-1)
			checkBallIndex(t, n, ballCum[n][w])
		}
		checkBallIndex(t, n, size-1)
	}
}

// TestCwKernelsMatchOracle drives the per-class kernels directly: every
// weight class of every width at its first, last and random members.
func TestCwKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= enumMaxWires; n++ {
		for w := 0; w <= n; w++ {
			c := binomTab[n<<6|w]
			ms := []uint64{0, c - 1, c / 2}
			for i := 0; i < 20; i++ {
				ms = append(ms, rng.Uint64()%c)
			}
			for _, m := range ms {
				word := oracleCwUnrank(n, w, m)
				if got := cwUnrank(n, w, m); got != word {
					t.Fatalf("cwUnrank(%d, %d, %d) = %#x, oracle %#x", n, w, m, got, word)
				}
				if got, ref := cwRank(word), oracleCwRank(n, word); got != m || ref != m {
					t.Fatalf("cwRank(%#x) = %d, oracle %d, want %d", word, got, ref, m)
				}
			}
		}
	}
}

// FuzzBallUnrank checks the table-driven unrank against the oracle at
// arbitrary (width, index) and that rank inverts it.
func FuzzBallUnrank(f *testing.F) {
	f.Add(uint8(34), uint64(0))
	f.Add(uint8(34), uint64(1)<<32-1)
	f.Add(uint8(62), uint64(1)<<62-1)
	f.Add(uint8(1), uint64(1))
	f.Add(uint8(10), ballCum[10][3])
	f.Fuzz(func(t *testing.T, nb uint8, idx uint64) {
		n := 1 + int(nb)%enumMaxWires
		checkBallIndex(t, n, idx&(1<<uint(n)-1))
	})
}

// TestEncoderMemoServesRepeats pins that each enumerative encoder fills
// its value memo and serves a repeated value from it: a marker planted
// in the filled slot must show in the next encode of that value.
func TestEncoderMemoServesRepeats(t *testing.T) {
	const v = 0xBEEF
	for name, c := range optimalConfigs(t, 32) {
		tc, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		enc, ref := tc.NewEncoder(), tc.NewEncoder()
		var memo *wordMemo
		switch e := enc.(type) {
		case *optMemEncoder:
			memo = &e.memo
		case *vcEncoder:
			memo = &e.memo
		case *lowWeightEncoder:
			memo = &e.memo
		case *dvsEncoder:
			memo = &e.memo
		default:
			t.Fatalf("%s: unexpected encoder %T", name, enc)
		}
		enc.Encode(v)
		ref.Encode(v)
		me := memo.entry(v)
		if me.tag != v+1 {
			t.Fatalf("%s: Encode(%#x) left its memo slot tagged %#x", name, v, me.tag)
		}
		me.word ^= 1
		if enc.Encode(v) == ref.Encode(v) {
			t.Fatalf("%s: a repeated value did not read the memo", name)
		}
	}
}
