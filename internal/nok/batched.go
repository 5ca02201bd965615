package nok

// Batched τ execution: the same matcher semantics as MatchOutputCounted,
// but evaluated by the compiled batch kernel (package batch) instead of
// the recursive interpreter. The kernel replaces per-node
// FirstChild/NextSibling navigation (a FindClose each) with linear scans
// of the parenthesis sequence, and operators exchange node ids in
// blocks. Results are bit-identical. MatchOutputParallel (parallel.go)
// runs the same kernels over partitions of the store.

import (
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/tally"
)

// MatchOutputBatched is MatchOutputCounted executed by the compiled
// batch kernel: MatchOutputParallel with one worker. It fails with
// batch.ErrTooLarge for patterns over batch.MaxVertices vertices (the
// same bound the interpreter enforces via ErrTooLarge); the executor
// checks that bound before dispatch.
func MatchOutputBatched(st *storage.Store, g *pattern.Graph, contexts []storage.NodeRef, interrupt func() error, c *tally.Counters) ([]storage.NodeRef, error) {
	refs, _, err := MatchOutputParallel(st, g, contexts, 1, interrupt, c)
	return refs, err
}
