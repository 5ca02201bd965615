package stats_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"xqp/internal/ast"
	"xqp/internal/compile"
	"xqp/internal/core"
	"xqp/internal/difftest"
	"xqp/internal/pattern"
	"xqp/internal/stats"
	"xqp/internal/storage"
	"xqp/internal/vocab"
	"xqp/internal/xmark"
)

// refNode is a node of the reference synopsis, a pointer tree with a
// child map per label path that the reference walkers recurse through.
// kids lists the children in symbol order, the order the flat rows keep,
// so that sums over children add in the same order and estimates can be
// compared bit for bit.
type refNode struct {
	sym      vocab.Symbol
	count    int64
	children map[vocab.Symbol]*refNode
	kids     []*refNode
}

func refBuild(st *storage.Store) *refNode {
	root := &refNode{sym: vocab.Root, count: 1, children: map[vocab.Symbol]*refNode{}}
	stack := []*refNode{root}
	st.Scan(st.Root(), func(n storage.NodeRef, depth int) bool {
		if n == st.Root() {
			return true
		}
		sym := st.Tag(n)
		stack = stack[:depth]
		parent := stack[depth-1]
		child, ok := parent.children[sym]
		if !ok {
			child = &refNode{sym: sym, children: map[vocab.Symbol]*refNode{}}
			parent.children[sym] = child
		}
		child.count++
		stack = append(stack, child)
		return true
	})
	var order func(n *refNode)
	order = func(n *refNode) {
		for _, c := range n.children {
			n.kids = append(n.kids, c)
			order(c)
		}
		slices.SortFunc(n.kids, func(a, b *refNode) int { return int(a.sym) - int(b.sym) })
	}
	order(root)
	return root
}

func refMatches(st *storage.Store, n *refNode, vx *pattern.Vertex) bool {
	if vx.Test.Kind != ast.TestName {
		return true // kind tests estimated loosely
	}
	if n.sym == vocab.Root {
		return false
	}
	name := st.Vocab.Name(n.sym)
	if vx.Attribute {
		return strings.HasPrefix(name, "@") && (vx.Test.Name == "*" || name[1:] == vx.Test.Name)
	}
	if strings.HasPrefix(name, "@") || strings.HasPrefix(name, "#") || strings.HasPrefix(name, "?") {
		return false
	}
	return vx.Test.Name == "*" || name == vx.Test.Name
}

// refEstimate is the reference EstimatePattern.
func refEstimate(st *storage.Store, root *refNode, g *pattern.Graph) float64 {
	type key struct {
		n *refNode
		v pattern.VertexID
	}
	memo := map[key]float64{}
	var down func(n *refNode, v pattern.VertexID) float64
	down = func(n *refNode, v pattern.VertexID) float64 {
		k := key{n, v}
		if r, ok := memo[k]; ok {
			return r
		}
		memo[k] = 0
		vx := &g.Vertices[v]
		if !refMatches(st, n, vx) {
			return 0
		}
		frac := 1.0
		for range vx.Preds {
			frac *= 0.33
		}
		for _, e := range g.Children[v] {
			var sub float64
			if e.Rel == pattern.RelChild {
				for _, c := range n.kids {
					sub += down(c, e.To)
				}
			} else {
				var rec func(m *refNode)
				rec = func(m *refNode) {
					for _, c := range m.kids {
						sub += down(c, e.To)
						rec(c)
					}
				}
				rec(n)
			}
			if sub <= 0 {
				memo[k] = 0
				return 0
			}
			p := sub / float64(max(n.count, 1))
			if p > 1 {
				p = 1
			}
			frac *= p
		}
		r := float64(n.count) * frac
		memo[k] = r
		return r
	}
	type step struct {
		v   pattern.VertexID
		rel pattern.Rel
	}
	var chain []step
	for v := g.Output; v >= 0; {
		p, rel := g.Parent(v)
		chain = append([]step{{v, rel}}, chain...)
		v = p
	}
	var total float64
	var walk func(n *refNode, ci int)
	walk = func(n *refNode, ci int) {
		if ci == len(chain)-1 {
			total += down(n, chain[ci].v)
			return
		}
		if !refMatches(st, n, &g.Vertices[chain[ci].v]) {
			return
		}
		if chain[ci+1].rel == pattern.RelChild {
			for _, c := range n.kids {
				walk(c, ci+1)
			}
		} else {
			var rec func(m *refNode)
			rec = func(m *refNode) {
				for _, c := range m.kids {
					walk(c, ci+1)
					rec(c)
				}
			}
			rec(n)
		}
	}
	walk(root, 0)
	return total
}

// refMatchable is the reference Matchable.
func refMatchable(st *storage.Store, root *refNode, g *pattern.Graph) bool {
	var down func(n *refNode, v pattern.VertexID) bool
	down = func(n *refNode, v pattern.VertexID) bool {
		if !refMatches(st, n, &g.Vertices[v]) {
			return false
		}
		for _, e := range g.Children[v] {
			found := false
			var rec func(m *refNode) bool
			rec = func(m *refNode) bool {
				for _, c := range m.kids {
					if down(c, e.To) || (e.Rel == pattern.RelDescendant && rec(c)) {
						return true
					}
				}
				return false
			}
			found = rec(n)
			if !found {
				return false
			}
		}
		return true
	}
	if g.Rooted {
		return down(root, 0)
	}
	var anywhere func(m *refNode) bool
	anywhere = func(m *refNode) bool {
		if down(m, 0) {
			return true
		}
		for _, c := range m.kids {
			if anywhere(c) {
				return true
			}
		}
		return false
	}
	return anywhere(root)
}

// workloadQueries are the queries of the benchmark's five workloads.
var workloadQueries = []string{
	// twig_scan
	`//open_auction[bidder][initial]/current`,
	`//person[phone]/name`,
	`//item[payment]/name`,
	`//person//name`,
	`count(//item)`,
	`for $a in //open_auction where $a/initial > 95 return $a/current`,
	// plan_churn
	`/site/people/person[profile]/name`,
	`//person[homepage]/emailaddress`,
	`//item[location = "asia"]/name`,
	`count(/site/regions/*/item/quantity)`,
	`//open_auction[bidder]/current`,
	`for $a in //open_auction where $a/initial > 90 return $a/current`,
	`count(//listitem//parlist/listitem/text)`,
	`//item[@id = "item_asia_3"]/name`,
	// bulk_result
	`/site/regions/*/item`,
	`/site/people/person`,
	`/site/open_auctions/open_auction`,
	// bid_stream
	`//person//name`,
	// routed_open
	`/site/people/person[@id = "person3"]/name`,
	`//item[@id = "item_asia_2"]/name`,
	`/site/open_auctions/open_auction[@id = "open_auction5"]/current`,
	`count(//bidder)`,
	// kind tests and wildcards, which the workloads lack
	`//*/text()`,
	`/site/*//@*`,
	`//node()/comment()`,
}

// patternVariants returns the τ patterns of every query compiled, each
// rooted and relative, with its output at every vertex.
func patternVariants(t *testing.T, queries []string) []*pattern.Graph {
	t.Helper()
	var out []*pattern.Graph
	for _, src := range queries {
		c, err := compile.Compile(src, compile.Options{}, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		core.Walk(c.Plan, func(o core.Op) bool {
			tpm, ok := o.(*core.TPMOp)
			if !ok {
				return true
			}
			for _, rooted := range []bool{true, false} {
				for v := range tpm.Graph.Vertices {
					g := tpm.Graph.Clone()
					g.Rooted, g.Output = rooted, pattern.VertexID(v)
					out = append(out, g)
				}
			}
			return true
		})
	}
	return out
}

// TestFlatWalksMatchReference: on every difftest family, EstimatePattern
// is bit-identical and Matchable identical to the reference tree walker,
// for the τ patterns of the workloads' and the family corpora's queries.
func TestFlatWalksMatchReference(t *testing.T) {
	queries := slices.Clone(workloadQueries)
	for _, family := range difftest.Families {
		for _, q := range difftest.Queries(family) {
			queries = append(queries, q.Src)
		}
	}
	graphs := patternVariants(t, queries)
	if len(graphs) < 200 {
		t.Fatalf("only %d pattern variants", len(graphs))
	}
	stores := map[string]*storage.Store{"auction(4)": xmark.StoreAuction(4), "auction(16)": xmark.StoreAuction(16)}
	for _, family := range difftest.Families {
		for _, scale := range []int{1, 2} {
			stores[fmt.Sprintf("%s(%d)", family, scale)] = difftest.Store(family, scale)
		}
	}
	nonzero := 0
	for name, st := range stores {
		syn, ref := stats.Build(st), refBuild(st)
		for _, g := range graphs {
			got, want := syn.EstimatePattern(st, g), refEstimate(st, ref, g)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: EstimatePattern(%s) = %v, reference %v", name, g, got, want)
			}
			if got > 0 {
				nonzero++
			}
			if got, want := syn.Matchable(st, g), refMatchable(st, ref, g); got != want {
				t.Errorf("%s: Matchable(%s) = %v, reference %v", name, g, got, want)
			}
		}
	}
	if nonzero < len(graphs) {
		t.Fatalf("only %d of %d estimates are positive", nonzero, len(stores)*len(graphs))
	}
}
