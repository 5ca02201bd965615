package batch

import (
	"errors"
	"strings"
	"testing"

	"xqp/internal/core"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/xmark"
)

func graphOf(t testing.TB, src string) *pattern.Graph {
	t.Helper()
	g, err := core.PatternOf(src)
	if err != nil {
		t.Fatalf("pattern %q: %v", src, err)
	}
	return g
}

// TestIntervalsMatchesStore pins the one-scan interval arrays against the
// store's per-node primitives: closePos[n] must equal the FindClose-backed
// Close, level[n] the rank-backed Depth, for every node.
func TestIntervalsMatchesStore(t *testing.T) {
	for _, st := range []*storage.Store{
		storage.FromDoc(xmark.Auction(2)),
		storage.FromDoc(xmark.Deep(3, 9)),
		storage.FromDoc(xmark.Wide(50)),
	} {
		closePos, level, err := Intervals(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(closePos) != st.NodeCount() || len(level) != st.NodeCount() {
			t.Fatalf("array sizes %d/%d, want %d", len(closePos), len(level), st.NodeCount())
		}
		for i := 0; i < st.NodeCount(); i++ {
			n := storage.NodeRef(i)
			_, end := st.Span(n)
			if int(closePos[i]) != end {
				t.Fatalf("node %d: closePos %d, Span end %d", i, closePos[i], end)
			}
			if int(level[i]) != st.Depth(n) {
				t.Fatalf("node %d: level %d, Depth %d", i, level[i], st.Depth(n))
			}
		}
	}
}

func TestIntervalsInterrupt(t *testing.T) {
	st := storage.FromDoc(xmark.Auction(1))
	boom := errors.New("boom")
	if _, _, err := Intervals(st, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestCompileTooLarge: the kernel's bitset masks cap patterns at 64
// vertices, mirroring the interpreter's own bound.
func TestCompileTooLarge(t *testing.T) {
	q := "/" + strings.Repeat("a/", 64) + "a" // 65 steps -> 65 vertices
	g := graphOf(t, q)
	if _, err := Compile(g); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestBoundDead: binding against a document missing a required tag must
// report dead so executors can skip the scan entirely.
func TestBoundDead(t *testing.T) {
	st := storage.FromDoc(xmark.Wide(5))
	dead := graphOf(t, "//nosuch")
	p, err := Compile(dead)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Bind(st).Dead() {
		t.Fatal("missing tag not reported dead")
	}
	alive := graphOf(t, "//entry")
	p, err = Compile(alive)
	if err != nil {
		t.Fatal(err)
	}
	b := p.Bind(st)
	if b.Dead() {
		t.Fatal("present tag reported dead")
	}
	var out []storage.NodeRef
	k := b.NewKernel(nil)
	if err := k.MatchOutput([]storage.NodeRef{st.Root()}, func(blk []storage.NodeRef) {
		out = append(out, append([]storage.NodeRef(nil), blk...)...)
	}); err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("matched %d entries, want 5", len(out))
	}
	if k.Visits() == 0 {
		t.Fatal("kernel tallied no visits")
	}
}

// TestSinkBlocks: outputs arrive in blocks of at most BlockSize, full
// blocks flushed mid-scan, the remainder at the end.
func TestSinkBlocks(t *testing.T) {
	st := storage.FromDoc(xmark.Wide(BlockSize + 37))
	g := graphOf(t, "//entry")
	p, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	k := p.Bind(st).NewKernel(nil)
	if err := k.MatchOutput([]storage.NodeRef{st.Root()}, func(blk []storage.NodeRef) {
		sizes = append(sizes, len(blk))
	}); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[0] != BlockSize || sizes[1] != 37 {
		t.Fatalf("block sizes = %v, want [%d 37]", sizes, BlockSize)
	}
}
