package join

import (
	"sync"
	"time"

	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/tally"
)

// VertexStreamsParallel builds the per-vertex tag streams feeding the
// holistic join matchers concurrently, one stream per pattern vertex on
// a pool of up to workers goroutines (the store's tag index is
// immutable, so the scans share it without locks). The stack phase
// itself stays serial — it is a single coordinated merge — so this
// parallelizes exactly the scan-dominated part of PathStack/TwigStack.
// interrupt, when non-nil, is polled by every worker; the first error
// cancels the build.
//
// streams[0] is nil (the anchor stream depends on the caller's
// context); parts records one partition span per vertex stream, with
// Root holding the vertex id.
func VertexStreamsParallel(st *storage.Store, g *pattern.Graph, workers int, interrupt func() error) (streams []Stream, parts []tally.Partition, err error) {
	n := g.VertexCount()
	streams = make([]Stream, n)
	parts = make([]tally.Partition, n-1)
	errs := make([]error, n)
	if workers > n-1 {
		workers = n - 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &poller{interrupt: interrupt}
			for v := range next {
				t0 := time.Now()
				func() {
					defer catchInterrupt(&errs[v])
					streams[v] = vertexStream(st, g.Vertices[v], p)
				}()
				parts[v-1] = tally.Partition{
					Root:    int64(v),
					Kind:    "stream",
					Nodes:   int64(len(streams[v])),
					Matches: int64(len(streams[v])),
					Dur:     time.Since(t0),
				}
			}
		}()
	}
	for v := 1; v < n; v++ {
		next <- v
	}
	close(next)
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, nil, e
		}
	}
	return streams, parts, nil
}

// TwigStackStreamsCounted is TwigStackCounted over prebuilt per-vertex
// streams (as produced by VertexStreamsParallel); a nil streams slice
// scans inline.
func TwigStackStreamsCounted(st *storage.Store, g *pattern.Graph, streams []Stream, interrupt func() error, c *tally.Counters) (s Stream, err error) {
	defer catchInterrupt(&err)
	t := newTwigStreams(st, g, streams, &poller{interrupt: interrupt}, false)
	t.run()
	out := t.merge()
	if c != nil {
		for _, cur := range t.curs {
			c.StreamElems += int64(cur.pos)
		}
		c.Solutions += int64(t.emitted)
	}
	return out, nil
}

// PathStackStreamsCounted is PathStackCounted over prebuilt per-vertex
// streams (as produced by VertexStreamsParallel); a nil streams slice
// scans inline.
func PathStackStreamsCounted(st *storage.Store, g *pattern.Graph, streams []Stream, interrupt func() error, c *tally.Counters) (s Stream, err error) {
	defer catchInterrupt(&err)
	return pathStack(st, g, streams, &poller{interrupt: interrupt}, c), nil
}
