package main

import (
	"fmt"

	"verticadr/internal/core"
)

// The part of the correctness gate that compares aggregate results with
// values derived from the generator, and (on the cluster) with an in-process
// single-node session over the same rows.

type aggWant struct {
	n   int64
	sum float64 // exact: the summed column holds dyadic values
	min float64
}

func (a *aggWant) add(x, m float64) {
	if a.n == 0 || m < a.min {
		a.min = m
	}
	a.n++
	a.sum += x
}

// expectedAggregate folds the generated rows the way the statement groups
// them. hasMin is false for the join, which selects no min().
func (r *run) expectedAggregate(stmt string) (want map[string]*aggWant, hasMin bool) {
	want = map[string]*aggWant{}
	get := func(k any) *aggWant {
		key := fmt.Sprint(k)
		if want[key] == nil {
			want[key] = &aggWant{}
		}
		return want[key]
	}
	e := &r.ds.events
	switch stmt {
	case "agg_grp":
		for i := range e.id {
			get(e.grp[i]).add(e.x[0][i], e.x[1][i])
		}
	case "agg_region":
		for i := range e.id {
			get(e.region[i]).add(e.x[0][i], e.x[1][i])
		}
	case "join":
		for i := range e.id {
			get(r.ds.dimGrp[e.dimID[i]]).add(e.x[0][i], 0)
		}
		return want, false
	case "read":
		in := &r.ds.in
		for i := range in.id {
			get(in.grp[i]).add(in.x[0][i], in.x[1][i])
		}
	default:
		return nil, false
	}
	return want, true
}

// checkAggregate holds a GROUP BY result to the generator: keys, counts, sums
// and minima all compare for equality.
func (r *run) checkAggregate(stmt string, rows [][]any) error {
	want, hasMin := r.expectedAggregate(stmt)
	if want == nil {
		return nil
	}
	if len(rows) != len(want) {
		return wrong("%s returned %d groups, the generated rows have %d", stmt, len(rows), len(want))
	}
	for _, row := range rows {
		w := want[fmt.Sprint(row[0])]
		if w == nil {
			return wrong("%s returned unknown group %v", stmt, row[0])
		}
		n, _ := asFloat(row[1])
		s, _ := asFloat(row[2])
		if int64(n) != w.n || s != w.sum {
			return wrong("%s group %v: count %v sum %v, generated rows give %d and %v", stmt, row[0], n, s, w.n, w.sum)
		}
		if hasMin {
			if m, _ := asFloat(row[3]); m != w.min {
				return wrong("%s group %v: min %v, generated rows give %v", stmt, row[0], m, w.min)
			}
		}
	}
	return nil
}

// buildReference loads the serving tables into an in-process single-node
// session and records what it answers to the aggregate statements; the
// routed results must match them bit for bit.
func (r *run) buildReference() error {
	sess, err := core.Start(core.Config{DBNodes: r.wl.dbNodes, DRWorkers: 1, InstancesPerWorker: 1})
	if err != nil {
		return err
	}
	defer sess.Close()
	for _, q := range ddl {
		if err := sess.ExecContext(r.ctx, q); err != nil {
			return err
		}
	}
	// Same COPY chunks as the cluster received: block boundaries, and with
	// them the order partial sums fold in, are part of the bits.
	for lo := 0; lo < r.ds.eventsRows; lo += loadChunkRows {
		if err := sess.Load("events", r.ds.events.batch(lo, min(lo+loadChunkRows, r.ds.eventsRows))); err != nil {
			return err
		}
	}
	if err := sess.Load("dim", r.ds.dimBatch(0, r.ds.dimRows)); err != nil {
		return err
	}
	r.expected = map[string]string{}
	for _, stmt := range []string{"agg_grp", "agg_region", "join"} {
		res, err := sess.QueryContext(r.ctx, statements[stmt])
		if err != nil {
			return err
		}
		// The client sees integers as JSON numbers; render the reference the
		// same way so the comparison is of values, not of Go types.
		rows := res.Rows()
		for _, row := range rows {
			for j, v := range row {
				if n, ok := v.(int64); ok {
					row[j] = float64(n)
				}
			}
		}
		r.expected[stmt] = render(rows)
	}
	return nil
}
