package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naive is a reference implementation used for differential testing.
type naive struct{ bits []bool }

func (n naive) rank1(i int) int {
	c := 0
	for j := 0; j < i && j < len(n.bits); j++ {
		if n.bits[j] {
			c++
		}
	}
	return c
}

func (n naive) select1(k int) int {
	c := 0
	for j, b := range n.bits {
		if b {
			c++
			if c == k {
				return j
			}
		}
	}
	return -1
}

func (n naive) select0(k int) int {
	c := 0
	for j, b := range n.bits {
		if !b {
			c++
			if c == k {
				return j
			}
		}
	}
	return -1
}

func randomBits(r *rand.Rand, n int, p float64) []bool {
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = r.Float64() < p
	}
	return bs
}

func TestEmpty(t *testing.T) {
	v := FromBits(nil)
	if v.Len() != 0 || v.Ones() != 0 || v.Zeros() != 0 {
		t.Fatalf("empty vector: Len=%d Ones=%d Zeros=%d", v.Len(), v.Ones(), v.Zeros())
	}
	if got := v.Rank1(0); got != 0 {
		t.Errorf("Rank1(0) = %d, want 0", got)
	}
	if got := v.Select1(1); got != -1 {
		t.Errorf("Select1(1) = %d, want -1", got)
	}
	if got := v.Select0(1); got != -1 {
		t.Errorf("Select0(1) = %d, want -1", got)
	}
}

func TestSingleBits(t *testing.T) {
	v1 := FromBits([]bool{true})
	if v1.Rank1(1) != 1 || v1.Select1(1) != 0 || !v1.Get(0) {
		t.Errorf("single 1-bit vector misbehaves")
	}
	v0 := FromBits([]bool{false})
	if v0.Rank1(1) != 0 || v0.Select0(1) != 0 || v0.Get(0) {
		t.Errorf("single 0-bit vector misbehaves")
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get out of range did not panic")
		}
	}()
	FromBits([]bool{true}).Get(1)
}

func TestRankSelectAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 63, 64, 65, 511, 512, 513, 1000, 4096, 10007} {
		for _, p := range []float64{0.0, 0.05, 0.5, 0.95, 1.0} {
			bs := randomBits(r, n, p)
			ref := naive{bs}
			v := FromBits(bs)
			if v.Len() != n {
				t.Fatalf("Len = %d, want %d", v.Len(), n)
			}
			if v.Ones() != ref.rank1(n) {
				t.Fatalf("n=%d p=%.2f: Ones = %d, want %d", n, p, v.Ones(), ref.rank1(n))
			}
			for trial := 0; trial < 200; trial++ {
				i := r.Intn(n + 1)
				if got, want := v.Rank1(i), ref.rank1(i); got != want {
					t.Fatalf("n=%d p=%.2f: Rank1(%d) = %d, want %d", n, p, i, got, want)
				}
				if got, want := v.Rank0(i), i-ref.rank1(i); got != want {
					t.Fatalf("n=%d p=%.2f: Rank0(%d) = %d, want %d", n, p, i, got, want)
				}
			}
			for k := 1; k <= v.Ones(); k += 1 + v.Ones()/50 {
				if got, want := v.Select1(k), ref.select1(k); got != want {
					t.Fatalf("n=%d p=%.2f: Select1(%d) = %d, want %d", n, p, k, got, want)
				}
			}
			for k := 1; k <= v.Zeros(); k += 1 + v.Zeros()/50 {
				if got, want := v.Select0(k), ref.select0(k); got != want {
					t.Fatalf("n=%d p=%.2f: Select0(%d) = %d, want %d", n, p, k, got, want)
				}
			}
		}
	}
}

// Property: Rank1(Select1(k)) == k-1 and Get(Select1(k)) == true.
func TestSelectRankInverseProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		r := rand.New(rand.NewSource(seed))
		v := FromBits(randomBits(r, n, 0.3))
		for k := 1; k <= v.Ones(); k++ {
			pos := v.Select1(k)
			if pos < 0 || !v.Get(pos) || v.Rank1(pos) != k-1 || v.Rank1(pos+1) != k {
				return false
			}
		}
		for k := 1; k <= v.Zeros(); k++ {
			pos := v.Select0(k)
			if pos < 0 || v.Get(pos) || v.Rank0(pos) != k-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: rank is monotone and increments exactly on set bits.
func TestRankMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(3000) + 1
		v := FromBits(randomBits(r, n, 0.5))
		prev := 0
		for i := 1; i <= n; i++ {
			cur := v.Rank1(i)
			step := cur - prev
			if step < 0 || step > 1 {
				return false
			}
			if (step == 1) != v.Get(i-1) {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendN(t *testing.T) {
	b := NewBuilder(0)
	b.AppendN(true, 100)
	b.AppendN(false, 37)
	b.AppendN(true, 1)
	v := b.Build()
	if v.Len() != 138 || v.Ones() != 101 {
		t.Fatalf("Len=%d Ones=%d, want 138/101", v.Len(), v.Ones())
	}
	if v.Select1(101) != 137 {
		t.Errorf("Select1(101) = %d, want 137", v.Select1(101))
	}
	if v.Select0(1) != 100 {
		t.Errorf("Select0(1) = %d, want 100", v.Select0(1))
	}
}

func TestSizeBytesPositive(t *testing.T) {
	v := FromBits(randomBits(rand.New(rand.NewSource(1)), 1000, 0.5))
	if v.SizeBytes() <= 1000/8 {
		t.Errorf("SizeBytes = %d, implausibly small", v.SizeBytes())
	}
}

func BenchmarkRank1(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	v := FromBits(randomBits(r, 1<<20, 0.5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Rank1(i % v.Len())
	}
}

func BenchmarkSelect1(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	v := FromBits(randomBits(r, 1<<20, 0.5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Select1(i%v.Ones() + 1)
	}
}

// TestAppendRange splices random runs of bits from random vectors at
// random builder offsets and compares with appending bit by bit.
func TestAppendRange(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		var want []bool
		b := NewBuilder(0)
		for piece := 0; piece < 1+r.Intn(5); piece++ {
			src := make([]bool, r.Intn(300))
			for i := range src {
				src[i] = r.Intn(2) == 0
			}
			sv := FromBits(src)
			from := 0
			if len(src) > 0 {
				from = r.Intn(len(src) + 1)
			}
			n := r.Intn(len(src) - from + 1)
			b.AppendRange(sv.Words(), from, n)
			want = append(want, src[from:from+n]...)
			if bit := r.Intn(3); bit < 2 { // interleave single-bit appends
				b.Append(bit == 1)
				want = append(want, bit == 1)
			}
		}
		v := b.Build()
		if v.Len() != len(want) {
			t.Fatalf("iter %d: Len = %d, want %d", iter, v.Len(), len(want))
		}
		ones := 0
		for i, bit := range want {
			if v.Get(i) != bit {
				t.Fatalf("iter %d: bit %d = %v, want %v", iter, i, v.Get(i), bit)
			}
			if bit {
				ones++
			}
		}
		if v.Ones() != ones {
			t.Fatalf("iter %d: Ones = %d, want %d (stray bits past the end)", iter, v.Ones(), ones)
		}
	}
}
