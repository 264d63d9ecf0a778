// Package lockscope is the cachemindlint lockscope fixture.
package lockscope

import "sync"

type backend struct{}

func (backend) Retrieve(q string) string { return q }
func (backend) Answer(q string) string   { return q }

// ContextBlock stands in for memory.ContextBlock: rendering a view
// embeds every turn of the log.
func ContextBlock(turns []string, q string) string { return q }

type session struct {
	mu    sync.Mutex
	turns []string
}

// goodViewOutsideLock copies the log under the lock and renders the
// copy after releasing it.
func (s *session) goodViewOutsideLock(q string) string {
	s.mu.Lock()
	turns := append([]string(nil), s.turns...)
	s.mu.Unlock()
	return ContextBlock(turns, q)
}

func (s *session) badViewUnderLock(q string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ContextBlock(s.turns, q) // want `call to slow method ContextBlock while a mutex is held`
}

type shard struct {
	mu      sync.Mutex
	entries map[string]string
	be      backend
	wake    chan struct{}
}

// goodScoped does the engine idiom: compute outside, mutate inside.
func (s *shard) goodScoped(q string) string {
	ans := s.be.Answer(q)
	s.mu.Lock()
	s.entries[q] = ans
	s.mu.Unlock()
	return ans
}

// goodDeferred holds to function end but only touches the map.
func (s *shard) goodDeferred(q string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[q]
}

// goodNonBlockingSend is the sanctioned fire-and-forget wake: a select
// with a default clause cannot block under the lock.
func (s *shard) goodNonBlockingSend(q, ans string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[q] = ans
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// goodSequential releases before the slow call.
func (s *shard) goodSequential(q string) string {
	s.mu.Lock()
	cached, ok := s.entries[q]
	s.mu.Unlock()
	if ok {
		return cached
	}
	return s.be.Retrieve(q)
}

func (s *shard) badSlowCallUnderLock(q string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cached, ok := s.entries[q]; ok {
		return cached
	}
	return s.be.Retrieve(q) // want `call to slow method Retrieve while a mutex is held`
}

func (s *shard) badBlockingSendUnderLock(q, ans string) {
	s.mu.Lock()
	s.entries[q] = ans
	s.wake <- struct{}{} // want `blocking channel send while a mutex is held`
	s.mu.Unlock()
}

func (s *shard) badUnpaired(q, ans string) {
	s.mu.Lock() // want `s\.mu\.Lock in \(\*shard\)\.badUnpaired has no matching Unlock`
	s.entries[q] = ans
}

// waivedHandoff documents the rare cross-function handoff pattern.
func (s *shard) waivedHandoff() {
	//cachemind:allow-lock released by the drain goroutine after quiesce
	s.mu.Lock()
}
