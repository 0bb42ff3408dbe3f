package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"verticadr/internal/telemetry"
)

// Recovery observability.
var (
	mReplayRecords = telemetry.Default().Counter("wal_recovery_records_total")
	mReplayBytes   = telemetry.Default().Counter("wal_recovery_bytes_total")
)

// ReplayStats reports what one recovery pass covered.
type ReplayStats struct {
	Records  int           // complete records delivered to the callback
	Bytes    int64         // framed bytes replayed
	Start    uint64        // LSN replay began at (the checkpoint horizon)
	End      uint64        // LSN of the valid end of the log
	Torn     bool          // a partial final record was discarded
	Segments int           // log files visited
	Elapsed  time.Duration // wall time of the redo pass
}

// ApplyError is a record the redo callback failed to apply, at its LSN. A
// caller that applies records behind the reader reports its own failures as
// ApplyErrors on the records they were.
type ApplyError struct {
	LSN uint64
	Err error
}

func (e *ApplyError) Error() string {
	return fmt.Sprintf("wal: replay apply at lsn %d: %v", e.LSN, e.Err)
}

func (e *ApplyError) Unwrap() error { return e.Err }

// Replay is the redo pass: it walks the log in dir from LSN `from` (a
// record boundary — typically the last checkpoint's horizon) and delivers
// every complete record, in order, to fn. A torn final record is tolerated
// and reported via stats.Torn; interior corruption (a CRC mismatch with the
// record bytes fully present, or corruption in any segment but the last)
// aborts with an error wrapping ErrCorrupt, because continuing would
// silently drop acknowledged commits. An empty or missing log directory
// replays nothing.
func Replay(dir string, from uint64, fn func(lsn uint64, typ byte, body []byte) error) (*ReplayStats, error) {
	t0 := time.Now()
	stats := &ReplayStats{Start: from, End: from}
	starts, err := listSegments(dir)
	if errors.Is(err, os.ErrNotExist) || len(starts) == 0 {
		stats.Elapsed = time.Since(t0)
		return stats, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: replay: %w", err)
	}
	// Analysis: locate the segment containing `from`. Segments below it are
	// pre-checkpoint and skipped whole.
	first := 0
	for i, s := range starts {
		if s <= from {
			first = i
		}
	}
	if from < starts[first] {
		return nil, fmt.Errorf("wal: replay horizon %d predates oldest segment %d (over-truncated log)", from, starts[first])
	}
	for i := first; i < len(starts); i++ {
		segStart := starts[i]
		lastSeg := i == len(starts)-1
		data, err := os.ReadFile(filepath.Join(dir, segName(segStart)))
		if err != nil {
			return nil, fmt.Errorf("wal: replay read segment: %w", err)
		}
		stats.Segments++
		off := uint64(0)
		if from > segStart {
			off = from - segStart // `from` is a record boundary inside this file
			if off > uint64(len(data)) {
				return nil, fmt.Errorf("%w: replay horizon %d beyond segment end", ErrCorrupt, from)
			}
		}
		for int(off) < len(data) {
			typ, body, n, err := decodeFrame(data[off:])
			if errors.Is(err, ErrTornTail) {
				if !lastSeg {
					// A mid-log segment may not end mid-record: rotation only
					// happens at flushed record boundaries.
					return nil, fmt.Errorf("%w: segment %016x ends mid-record", ErrCorrupt, segStart)
				}
				stats.Torn = true
				stats.Elapsed = time.Since(t0)
				return stats, nil
			}
			if err != nil {
				return nil, fmt.Errorf("wal: replay at lsn %d: %w", segStart+off, err)
			}
			if fn != nil {
				if err := fn(segStart+off, typ, body); err != nil {
					return nil, &ApplyError{LSN: segStart + off, Err: err}
				}
			}
			off += n
			stats.Records++
			stats.Bytes += int64(n)
			stats.End = segStart + off
			mReplayRecords.Inc()
			mReplayBytes.Add(int64(n))
		}
	}
	stats.Elapsed = time.Since(t0)
	return stats, nil
}
