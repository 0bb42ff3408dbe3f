package server

import "time"

// SetMaxFrame lowers t's response frame limit from wire.MaxFrameBytes.
func (t *TCPServer) SetMaxFrame(bytes int) { t.maxFrame = bytes }

// PlanCacheLen reports the one-shot plan cache's current size.
func (s *Server) PlanCacheLen() int { return s.plans.len() }

// Evicted reports how many fingerprints retention has dropped.
func (s *StmtStats) Evicted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Record is record of an execution that had no plan.
func (s *StmtStats) Record(sql string, d time.Duration, err error) { s.record(sql, "", d, err) }
