package bench

import "verticadr/internal/telemetry"

// SimVFTTransferSpans is SimVFTTransfer with span recording: the returned
// spans come from a SpanLog clocked by the simulation, so their durations
// are virtual seconds of simulated transfer — not the microseconds the
// simulation takes on the wall clock. The root vft.transfer span covers the
// whole load; its db-side child ends when the last export instance finishes
// and its conversion child runs until the conversion tail drains.
func SimVFTTransferSpans(c Calib, gb float64, dbNodes, rInstancesPerNode int) (VFTBreakdown, []telemetry.SpanRecord) {
	return simVFT(c, gb, dbNodes, rInstancesPerNode, true)
}
