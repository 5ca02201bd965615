// Package bitvec provides succinct bit vectors with constant-time rank and
// near-constant-time select support.
//
// A Vector is an immutable sequence of bits packed into 64-bit words,
// augmented with a two-level directory of precomputed population counts.
// Rank1(i) (the number of 1-bits in positions [0, i)) is answered with one
// directory lookup plus one popcount; Select1(k) (the position of the k-th
// 1-bit, 1-based) binary-searches the directory and finishes inside a single
// word. These primitives underpin the balanced-parentheses tree encoding in
// package bp, which in turn underpins the succinct document store.
package bitvec

import (
	"fmt"
	"math/bits"
)

const (
	wordBits  = 64
	blockWrds = 8 // words per rank block (512 bits)
	blockBits = wordBits * blockWrds
)

// Builder accumulates bits and produces an immutable Vector.
type Builder struct {
	words []uint64
	n     int
}

// NewBuilder returns a Builder with capacity for sizeHint bits.
func NewBuilder(sizeHint int) *Builder {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Builder{words: make([]uint64, 0, (sizeHint+wordBits-1)/wordBits)}
}

// Append adds one bit to the end of the sequence.
func (b *Builder) Append(bit bool) {
	w, off := b.n/wordBits, uint(b.n%wordBits)
	if w == len(b.words) {
		b.words = append(b.words, 0)
	}
	if bit {
		b.words[w] |= 1 << off
	}
	b.n++
}

// AppendN adds n copies of bit.
func (b *Builder) AppendN(bit bool, n int) {
	for i := 0; i < n; i++ {
		b.Append(bit)
	}
}

// AppendRange adds bits [from, from+n) of the packed words src (LSB-first,
// as returned by Vector.Words) a word at a time with a shift, so copying
// a run of bits costs one or two word operations per 64 bits.
func (b *Builder) AppendRange(src []uint64, from, n int) {
	for n > 0 {
		w, off := from/wordBits, uint(from%wordBits)
		chunk := src[w] >> off
		if off != 0 && w+1 < len(src) {
			chunk |= src[w+1] << (wordBits - off)
		}
		k := wordBits
		if n < k {
			k = n
			chunk &= 1<<uint(k) - 1
		}
		b.appendWord(chunk, k)
		from += k
		n -= k
	}
}

// appendWord adds the k low bits of x, whose higher bits must be zero.
func (b *Builder) appendWord(x uint64, k int) {
	off := uint(b.n % wordBits)
	if off == 0 {
		b.words = append(b.words, x)
	} else {
		b.words[len(b.words)-1] |= x << off
		if int(off)+k > wordBits {
			b.words = append(b.words, x>>(wordBits-off))
		}
	}
	b.n += k
}

// Len reports the number of bits appended so far.
func (b *Builder) Len() int { return b.n }

// Build freezes the builder into a Vector. The builder must not be used
// afterwards.
func (b *Builder) Build() *Vector {
	v := &Vector{words: b.words, n: b.n}
	v.index()
	b.words = nil
	b.n = 0
	return v
}

// Vector is an immutable bit sequence supporting Rank and Select.
type Vector struct {
	words []uint64
	n     int
	// blockRank[i] is the number of 1-bits strictly before block i.
	blockRank []uint64
	ones      int
}

// FromBits builds a Vector from a slice of booleans; convenient in tests.
func FromBits(bitsIn []bool) *Vector {
	b := NewBuilder(len(bitsIn))
	for _, bit := range bitsIn {
		b.Append(bit)
	}
	return b.Build()
}

func (v *Vector) index() {
	nb := (len(v.words) + blockWrds - 1) / blockWrds
	v.blockRank = make([]uint64, nb+1)
	var acc uint64
	for i := 0; i < nb; i++ {
		v.blockRank[i] = acc
		end := (i + 1) * blockWrds
		if end > len(v.words) {
			end = len(v.words)
		}
		for _, w := range v.words[i*blockWrds : end] {
			acc += uint64(bits.OnesCount64(w))
		}
	}
	v.blockRank[nb] = acc
	v.ones = int(acc)
}

// Len reports the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Ones reports the total number of 1-bits.
func (v *Vector) Ones() int { return v.ones }

// Zeros reports the total number of 0-bits.
func (v *Vector) Zeros() int { return v.n - v.ones }

// Get reports the bit at position i. It panics if i is out of range.
func (v *Vector) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: Get(%d) out of range [0,%d)", i, v.n))
	}
	return v.words[i/wordBits]>>(uint(i%wordBits))&1 == 1
}

// Rank1 returns the number of 1-bits in positions [0, i). i may equal Len().
func (v *Vector) Rank1(i int) int {
	if i <= 0 {
		return 0
	}
	if i >= v.n {
		return v.ones
	}
	blk := i / blockBits
	r := v.blockRank[blk]
	w := blk * blockWrds
	for ; (w+1)*wordBits <= i; w++ {
		r += uint64(bits.OnesCount64(v.words[w]))
	}
	if rem := uint(i % wordBits); rem != 0 {
		r += uint64(bits.OnesCount64(v.words[w] & (1<<rem - 1)))
	}
	return int(r)
}

// Rank0 returns the number of 0-bits in positions [0, i).
func (v *Vector) Rank0(i int) int {
	if i <= 0 {
		return 0
	}
	if i >= v.n {
		return v.n - v.ones
	}
	return i - v.Rank1(i)
}

// Select1 returns the position of the k-th 1-bit (k is 1-based).
// It returns -1 if the vector has fewer than k 1-bits.
func (v *Vector) Select1(k int) int {
	if k <= 0 || k > v.ones {
		return -1
	}
	// Binary search the block directory for the block containing the k-th 1.
	lo, hi := 0, len(v.blockRank)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if v.blockRank[mid] < uint64(k) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := k - int(v.blockRank[lo])
	for w := lo * blockWrds; w < len(v.words); w++ {
		c := bits.OnesCount64(v.words[w])
		if rem <= c {
			return w*wordBits + selectInWord(v.words[w], rem)
		}
		rem -= c
	}
	return -1
}

// Select0 returns the position of the k-th 0-bit (k is 1-based), or -1.
func (v *Vector) Select0(k int) int {
	if k <= 0 || k > v.n-v.ones {
		return -1
	}
	// Blocks store 1-ranks; 0-rank of block i is i*blockBits - blockRank[i]
	// (clamped at the tail). Binary search on that.
	lo, hi := 0, len(v.blockRank)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		zeros := mid*blockBits - int(v.blockRank[mid])
		if zeros < k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := k - (lo*blockBits - int(v.blockRank[lo]))
	for w := lo * blockWrds; w < len(v.words); w++ {
		word := ^v.words[w]
		if w == len(v.words)-1 {
			if tail := uint(v.n % wordBits); tail != 0 {
				word &= 1<<tail - 1
			}
		}
		c := bits.OnesCount64(word)
		if rem <= c {
			return w*wordBits + selectInWord(word, rem)
		}
		rem -= c
	}
	return -1
}

// selectInWord returns the position (0-63) of the k-th set bit of w, 1-based.
func selectInWord(w uint64, k int) int {
	for i := 1; i < k; i++ {
		w &= w - 1 // clear lowest set bit
	}
	return bits.TrailingZeros64(w)
}

// Words exposes the raw packed words; used by package bp to build its
// excess directory without re-walking bits one at a time.
func (v *Vector) Words() []uint64 { return v.words }

// SizeBytes reports the in-memory footprint of the vector including its
// rank directory. Used by the storage-size experiment (E1).
func (v *Vector) SizeBytes() int {
	return len(v.words)*8 + len(v.blockRank)*8 + 16
}
