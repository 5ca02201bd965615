// Package bp implements a balanced-parentheses encoding of ordered trees
// with succinct navigation, the structural half of the storage scheme in
// Zhang et al. (ICDE 2004) that the paper's Section 4 builds on.
//
// A tree with n nodes is linearized in pre-order as a sequence of 2n
// parentheses: an opening parenthesis (bit 1) when a node is entered and a
// closing parenthesis (bit 0) when it is left. A node is identified by the
// position of its opening parenthesis. Navigation (parent, first child,
// next sibling, subtree size, depth) reduces to three primitives —
// FindClose, FindOpen and Enclose — all answered through a segment tree
// over block-level excess minima/maxima (a range-min-max tree) with
// byte-table-accelerated in-block scans.
package bp

import (
	"fmt"

	"xqp/internal/bitvec"
)

const (
	wordBits  = 64
	blockBits = 512 // one rank block; also one RMM leaf
)

// byte-granularity excess tables, indexed by byte value. Bits are consumed
// LSB-first (bit 0 of the byte is the earliest position).
var (
	byteTot  [256]int8 // total excess of the byte
	bytePMin [256]int8 // min over prefix excesses (1..8 bits consumed)
	bytePMax [256]int8 // max over prefix excesses
	byteSMin [256]int8 // min over suffix excesses, scanning right-to-left
	byteSMax [256]int8 // max over suffix excesses
)

func init() {
	for v := 0; v < 256; v++ {
		exc := int8(0)
		pmin, pmax := int8(127), int8(-128)
		for i := 0; i < 8; i++ {
			if v>>i&1 == 1 {
				exc++
			} else {
				exc--
			}
			if exc < pmin {
				pmin = exc
			}
			if exc > pmax {
				pmax = exc
			}
		}
		byteTot[v] = exc
		bytePMin[v] = pmin
		bytePMax[v] = pmax
		// Suffix scan: consume bits 7 down to 0; the running value is the
		// negated sum of deltas of the consumed bits (excess change walking
		// left from the byte's right boundary).
		sexc := int8(0)
		smin, smax := int8(127), int8(-128)
		for i := 7; i >= 0; i-- {
			if v>>i&1 == 1 {
				sexc--
			} else {
				sexc++
			}
			if sexc < smin {
				smin = sexc
			}
			if sexc > smax {
				smax = sexc
			}
		}
		byteSMin[v] = smin
		byteSMax[v] = smax
	}
}

// Sequence is an immutable balanced-parentheses sequence with succinct
// navigation support.
type Sequence struct {
	bv     *bitvec.Vector
	n      int // number of bits (2 × node count when balanced)
	blocks int
	// Segment tree in heap layout over blocks padded to a power of two.
	// seg[1] is the root; leaves start at segLeaf. Stored values are the
	// absolute min/max prefix excess over the boundaries inside each block.
	segMin, segMax []int32
	segLeaf        int
	blkCum         []int32 // absolute excess at each block's start boundary
}

// New wraps a parenthesis bit vector (1 = open, 0 = close). The sequence
// need not be balanced as a whole (builders may wrap partial sequences),
// but navigation results are only meaningful on balanced regions.
func New(bv *bitvec.Vector) *Sequence {
	s := &Sequence{bv: bv, n: bv.Len()}
	s.blocks = (s.n + blockBits - 1) / blockBits
	if s.blocks == 0 {
		s.blocks = 1
	}
	leaves := 1
	for leaves < s.blocks {
		leaves *= 2
	}
	s.segLeaf = leaves
	s.segMin = make([]int32, 2*leaves)
	s.segMax = make([]int32, 2*leaves)
	s.blkCum = make([]int32, s.blocks+1)
	for i := range s.segMin {
		s.segMin[i] = int32(1) << 30
		s.segMax[i] = -(int32(1) << 30)
	}
	words := bv.Words()
	exc := int32(0)
	for b := 0; b < s.blocks; b++ {
		s.blkCum[b] = exc
		lo, hi := b*blockBits, (b+1)*blockBits
		if hi > s.n {
			hi = s.n
		}
		bmin, bmax := int32(1)<<30, -(int32(1) << 30)
		p := lo
		for p < hi {
			if hi-p >= 8 && p%8 == 0 {
				byteVal := int(words[p/wordBits] >> uint(p%wordBits) & 0xff)
				if e := exc + int32(bytePMin[byteVal]); e < bmin {
					bmin = e
				}
				if e := exc + int32(bytePMax[byteVal]); e > bmax {
					bmax = e
				}
				exc += int32(byteTot[byteVal])
				p += 8
				continue
			}
			if words[p/wordBits]>>uint(p%wordBits)&1 == 1 {
				exc++
			} else {
				exc--
			}
			if exc < bmin {
				bmin = exc
			}
			if exc > bmax {
				bmax = exc
			}
			p++
		}
		s.segMin[leaves+b] = bmin
		s.segMax[leaves+b] = bmax
	}
	s.blkCum[s.blocks] = exc
	for i := leaves - 1; i >= 1; i-- {
		s.segMin[i] = min32(s.segMin[2*i], s.segMin[2*i+1])
		s.segMax[i] = max32(s.segMax[2*i], s.segMax[2*i+1])
	}
	return s
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// Len reports the number of parentheses.
func (s *Sequence) Len() int { return s.n }

// NodeCount reports the number of tree nodes (opening parentheses).
func (s *Sequence) NodeCount() int { return s.bv.Ones() }

// IsOpen reports whether position i holds an opening parenthesis.
func (s *Sequence) IsOpen(i int) bool { return s.bv.Get(i) }

// Words exposes the packed parentheses (bit i of the sequence is bit i%64
// of word i/64, 1 = open) for callers that scan a range sequentially
// instead of asking IsOpen position by position. Do not modify.
func (s *Sequence) Words() []uint64 { return s.bv.Words() }

// Excess returns E(i): the number of opens minus closes in positions [0, i).
// For an opening parenthesis at i, Excess(i) is the node's depth (root = 0).
func (s *Sequence) Excess(i int) int {
	return 2*s.bv.Rank1(i) - i
}

// Depth returns the depth of the node whose open parenthesis is at i
// (the root has depth 0).
func (s *Sequence) Depth(i int) int { return s.Excess(i) }

// PreorderRank returns the 1-based pre-order number of the node at open
// position i.
func (s *Sequence) PreorderRank(i int) int { return s.bv.Rank1(i) + 1 }

// PreorderSelect returns the open position of the k-th node in pre-order
// (k is 1-based), or -1 if out of range.
func (s *Sequence) PreorderSelect(k int) int { return s.bv.Select1(k) }

// FindClose returns the position of the closing parenthesis matching the
// opening parenthesis at i. It panics if i does not hold an open.
func (s *Sequence) FindClose(i int) int {
	if !s.bv.Get(i) {
		panic(fmt.Sprintf("bp: FindClose(%d): not an opening parenthesis", i))
	}
	// Matching close j is the least j > i with E(j+1) == E(i).
	j := s.fwdSearch(i+1, s.Excess(i))
	return j
}

// FindOpen returns the position of the opening parenthesis matching the
// closing parenthesis at j. It panics if j does not hold a close.
func (s *Sequence) FindOpen(j int) int {
	if s.bv.Get(j) {
		panic(fmt.Sprintf("bp: FindOpen(%d): not a closing parenthesis", j))
	}
	// Matching open is the greatest p <= j with E(p) == E(j+1).
	return s.bwdSearch(j, s.Excess(j)-1)
}

// Enclose returns the open position of the parent of the node at open
// position i, or -1 if i is a root.
func (s *Sequence) Enclose(i int) int {
	if !s.bv.Get(i) {
		panic(fmt.Sprintf("bp: Enclose(%d): not an opening parenthesis", i))
	}
	d := s.Excess(i)
	if d == 0 {
		return -1
	}
	return s.bwdSearch(i-1, d-1)
}

// fwdSearch returns the least j >= start such that E(j+1) == target,
// or -1 if none exists.
func (s *Sequence) fwdSearch(start, target int) int {
	if start >= s.n {
		return -1
	}
	words := s.bv.Words()
	exc := s.Excess(start)
	b := start / blockBits
	end := (b + 1) * blockBits
	if end > s.n {
		end = s.n
	}
	if j, e, ok := scanFwd(words, start, end, exc, target); ok {
		return j
	} else {
		exc = e
	}
	// Segment-tree descent: leftmost block > b whose [min,max] covers target.
	nb := s.nextBlock(b+1, int32(target))
	if nb < 0 {
		return -1
	}
	lo := nb * blockBits
	hi := lo + blockBits
	if hi > s.n {
		hi = s.n
	}
	j, _, ok := scanFwd(words, lo, hi, int(s.blkCum[nb]), target)
	if !ok {
		return -1
	}
	return j
}

// scanFwd scans positions [from, to); exc must equal E(from). It returns the
// first j with E(j+1) == target, the excess at `to` otherwise.
func scanFwd(words []uint64, from, to, exc, target int) (int, int, bool) {
	p := from
	for p < to {
		if p%8 == 0 && to-p >= 8 {
			byteVal := int(words[p/wordBits] >> uint(p%wordBits) & 0xff)
			d := target - exc
			if d >= int(bytePMin[byteVal]) && d <= int(bytePMax[byteVal]) {
				// The target is reached inside this byte; scan its bits.
				for i := 0; i < 8; i++ {
					if byteVal>>i&1 == 1 {
						exc++
					} else {
						exc--
					}
					if exc == target {
						return p + i, exc, true
					}
				}
			}
			exc += int(byteTot[byteVal])
			p += 8
			continue
		}
		if words[p/wordBits]>>uint(p%wordBits)&1 == 1 {
			exc++
		} else {
			exc--
		}
		if exc == target {
			return p, exc, true
		}
		p++
	}
	return -1, exc, false
}

// bwdSearch returns the greatest p <= end such that E(p) == target,
// or -1 if none exists.
func (s *Sequence) bwdSearch(end, target int) int {
	if end < 0 {
		return -1
	}
	if end > s.n {
		end = s.n
	}
	words := s.bv.Words()
	exc := s.Excess(end)
	if exc == target {
		return end
	}
	b := end / blockBits
	if b >= s.blocks {
		b = s.blocks - 1
	}
	lo := b * blockBits
	if p, ok := scanBwd(words, end, lo, exc, target); ok {
		return p
	}
	if int(s.blkCum[b]) == target {
		return lo
	}
	// Rightmost block < b whose [min,max] covers target; note block
	// boundaries themselves are covered via blkCum checks above/below.
	pb := s.prevBlock(b-1, int32(target))
	if pb < 0 {
		if target == 0 {
			return 0
		}
		return -1
	}
	hi := (pb + 1) * blockBits
	// Boundary hi itself belongs to block pb's excess range but is not
	// visited by scanBwd, so check it explicitly first.
	if int(s.blkCum[pb+1]) == target {
		return hi
	}
	p, ok := scanBwd(words, hi, pb*blockBits, int(s.blkCum[pb+1]), target)
	if ok {
		return p
	}
	return -1
}

// scanBwd scans boundaries end-1, end-2, ..., lo+1 walking left; exc must
// equal E(end). It returns the greatest p in (lo, end) with E(p) == target.
func scanBwd(words []uint64, end, lo, exc, target int) (int, bool) {
	p := end
	for p > lo {
		if p%8 == 0 && p-lo >= 8 {
			byteVal := int(words[(p-8)/wordBits] >> uint((p-8)%wordBits) & 0xff)
			d := target - exc
			if d >= int(byteSMin[byteVal]) && d <= int(byteSMax[byteVal]) {
				for i := 7; i >= 0; i-- {
					if byteVal>>i&1 == 1 {
						exc--
					} else {
						exc++
					}
					if exc == target {
						return p - 8 + i, true
					}
				}
			}
			exc -= int(byteTot[byteVal])
			p -= 8
			continue
		}
		if words[(p-1)/wordBits]>>uint((p-1)%wordBits)&1 == 1 {
			exc--
		} else {
			exc++
		}
		if exc == target {
			return p - 1, true
		}
		p--
	}
	return -1, false
}

// nextBlock returns the least leaf index >= from whose range covers target.
func (s *Sequence) nextBlock(from int, target int32) int {
	if from >= s.blocks {
		return -1
	}
	return s.segNext(1, 0, s.segLeaf, from, target)
}

func (s *Sequence) segNext(node, lo, hi, from int, target int32) int {
	if hi <= from || s.segMin[node] > target || s.segMax[node] < target {
		return -1
	}
	if hi-lo == 1 {
		return lo
	}
	mid := (lo + hi) / 2
	if r := s.segNext(2*node, lo, mid, from, target); r >= 0 {
		return r
	}
	return s.segNext(2*node+1, mid, hi, from, target)
}

// prevBlock returns the greatest leaf index <= upto whose range covers target.
func (s *Sequence) prevBlock(upto int, target int32) int {
	if upto < 0 {
		return -1
	}
	return s.segPrev(1, 0, s.segLeaf, upto, target)
}

func (s *Sequence) segPrev(node, lo, hi, upto int, target int32) int {
	if lo > upto || s.segMin[node] > target || s.segMax[node] < target {
		return -1
	}
	if hi-lo == 1 {
		return lo
	}
	mid := (lo + hi) / 2
	if r := s.segPrev(2*node+1, mid, hi, upto, target); r >= 0 {
		return r
	}
	return s.segPrev(2*node, lo, mid, upto, target)
}

// --- Tree navigation over open-parenthesis node handles ---

// Parent returns the open position of i's parent, or -1 for a root.
func (s *Sequence) Parent(i int) int { return s.Enclose(i) }

// FirstChild returns the open position of i's first child, or -1 if i is a
// leaf.
func (s *Sequence) FirstChild(i int) int {
	if i+1 < s.n && s.bv.Get(i+1) {
		return i + 1
	}
	return -1
}

// LastChild returns the open position of i's last child, or -1 if i is a
// leaf.
func (s *Sequence) LastChild(i int) int {
	c := s.FindClose(i)
	if c == i+1 {
		return -1
	}
	return s.FindOpen(c - 1)
}

// NextSibling returns the open position of i's next sibling, or -1.
func (s *Sequence) NextSibling(i int) int {
	j := s.FindClose(i) + 1
	if j < s.n && s.bv.Get(j) {
		return j
	}
	return -1
}

// PrevSibling returns the open position of i's previous sibling, or -1.
func (s *Sequence) PrevSibling(i int) int {
	if i == 0 || s.bv.Get(i-1) {
		return -1
	}
	return s.FindOpen(i - 1)
}

// IsLeaf reports whether the node at open position i has no children.
func (s *Sequence) IsLeaf(i int) bool { return !(i+1 < s.n && s.bv.Get(i+1)) }

// SubtreeSize returns the number of nodes in the subtree rooted at i.
func (s *Sequence) SubtreeSize(i int) int {
	return (s.FindClose(i) - i + 1) / 2
}

// IsAncestor reports whether the node at open position a is a proper
// ancestor of the node at open position d.
func (s *Sequence) IsAncestor(a, d int) bool {
	return a < d && d < s.FindClose(a)
}

// SizeBytes reports the in-memory footprint of the sequence including its
// directories; used by the storage-size experiment (E1).
func (s *Sequence) SizeBytes() int {
	return s.bv.SizeBytes() + 4*(len(s.segMin)+len(s.segMax)+len(s.blkCum)) + 32
}
