package sim

import (
	"fmt"
	"strings"

	"iaclan/internal/stats"
)

// ClientMetrics is one client's outcome over a trial.
type ClientMetrics struct {
	// Offered counts packets the traffic source generated; Delivered
	// those acked; Dropped those lost past MaxRetries; BufferDropped
	// those discarded at the client for a full queue.
	Offered       int
	Delivered     int
	Dropped       int
	BufferDropped int
	// ThroughputBitsPerSlot is delivered payload bits per airtime slot
	// (CFP slots plus contention periods).
	ThroughputBitsPerSlot float64
	// MeanRate is the mean achieved PHY rate (bit/s/Hz) over the
	// client's delivered packets.
	MeanRate float64
	// MeanLatencySlots and P95LatencySlots measure arrival-to-ack delay
	// in slots (zero when nothing was delivered).
	MeanLatencySlots float64
	P95LatencySlots  float64
}

// TrialResult is one simulation trial's outcome.
type TrialResult struct {
	// Seed is the trial's own seed (Config.Seed + trial index).
	Seed int64
	// Cycles is the number of CFP cycles run; Slots the airtime they
	// consumed, including contention periods.
	Cycles int
	Slots  int
	// PerClient is indexed by scenario client index.
	PerClient []ClientMetrics
	// SumThroughputBitsPerSlot totals the per-client throughputs.
	SumThroughputBitsPerSlot float64
	// JainFairness is Jain's index over per-client throughput.
	JainFairness float64
	// Latency is the trial's pooled arrival-to-ack distribution (in
	// slots) as a mergeable quantile sketch — the carrier
	// that lets sweeps and campuses fold latency without concatenating
	// per-client sample slices. MeanLatencySlots / P95LatencySlots are
	// its scalar summary (sketch-derived, <= ~1.2% relative error on
	// the p95).
	Latency          *stats.Sketch
	MeanLatencySlots float64
	P95LatencySlots  float64
	// DeliveredFraction is delivered/offered packets.
	DeliveredFraction float64
	// BackendBytes is the wired-plane load; WirelessBits the delivered
	// payload bits; their ratio is IAC's headline backend metric
	// ("Ethernet traffic remains comparable to the wireless
	// throughput", Section 2a).
	BackendBytes               int64
	WirelessBits               int64
	BackendBytesPerWirelessBit float64
	// Transport is the closed-loop transport's accounting (zero with
	// Config.Transport disabled); Stream the streaming application
	// plane's (zero without WorkloadStreaming).
	Transport TransportStats
	Stream    StreamStats
}

// Summary aggregates a trial sweep. Scalar fields are means across
// trials except the packet counters (totals), the backend ratio
// (total bytes over total bits), and the latency statistics, which
// pool every delivered packet across trials via the Latency sketch.
type Summary struct {
	Trials int
	Cycles int
	// Workers is the worker-pool size the sweep actually used (set by
	// RunSweep; zero when the trials were aggregated directly).
	Workers int
	// MeanSlots is the mean airtime per trial.
	MeanSlots float64
	// PerClientThroughput is each client's mean throughput (bits/slot)
	// across trials; JainFairness is Jain's index over it.
	PerClientThroughput      []float64
	SumThroughputBitsPerSlot float64
	JainFairness             float64
	// Latency pools every delivered packet across the aggregated
	// trials (and, for a campus, across cells) by sketch merge;
	// MeanLatencySlots / P95LatencySlots summarize it. Because bin
	// counts are integers, the pooled quantiles are bit-identical
	// whatever order the trials were merged in.
	Latency                    *stats.Sketch
	MeanLatencySlots           float64
	P95LatencySlots            float64
	DeliveredFraction          float64
	OfferedPackets             int
	DeliveredPackets           int
	DroppedPackets             int
	BufferDroppedPackets       int
	BackendBytes               int64
	WirelessBits               int64
	BackendBytesPerWirelessBit float64
	// Transport sums the trials' closed-loop counters (MeanFinalCwnd
	// averages); Stream sums the session tallies and recomputes the
	// derived rates from the pooled numerators. Both stay zero when the
	// respective plane never ran.
	Transport TransportStats
	Stream    StreamStats
}

// Summarize aggregates trials deterministically (in slice order).
func Summarize(trials []TrialResult) Summary {
	s := Summary{Trials: len(trials)}
	if len(trials) == 0 {
		return s
	}
	s.Cycles = trials[0].Cycles
	nClients := len(trials[0].PerClient)
	s.PerClientThroughput = make([]float64, nClients)
	// Latency pools by sketch merge in slice order: one distribution
	// over every delivered packet of the sweep, so the p95 is a true
	// pooled percentile rather than a mean of per-trial percentiles.
	s.Latency = new(stats.DenseSketch).Sketch()
	tpTrials := 0
	for _, tr := range trials {
		s.MeanSlots += float64(tr.Slots)
		s.SumThroughputBitsPerSlot += tr.SumThroughputBitsPerSlot
		s.Latency.Merge(tr.Latency)
		s.BackendBytes += tr.BackendBytes
		s.WirelessBits += tr.WirelessBits
		if tr.Transport.Enabled {
			mergeTransport(&s.Transport, tr.Transport, tpTrials)
			tpTrials++
		}
		mergeStream(&s.Stream, tr.Stream, 0, 0)
		for i, cm := range tr.PerClient {
			if i < nClients {
				s.PerClientThroughput[i] += cm.ThroughputBitsPerSlot
			}
			s.OfferedPackets += cm.Offered
			s.DeliveredPackets += cm.Delivered
			s.DroppedPackets += cm.Dropped
			s.BufferDroppedPackets += cm.BufferDropped
		}
	}
	n := float64(len(trials))
	s.MeanSlots /= n
	s.SumThroughputBitsPerSlot /= n
	if s.Latency.Count() > 0 {
		s.MeanLatencySlots = s.Latency.Mean()
		s.P95LatencySlots = s.Latency.Quantile(95)
	}
	for i := range s.PerClientThroughput {
		s.PerClientThroughput[i] /= n
	}
	s.JainFairness = stats.JainFairness(s.PerClientThroughput)
	if s.OfferedPackets > 0 {
		s.DeliveredFraction = float64(s.DeliveredPackets) / float64(s.OfferedPackets)
	}
	if s.WirelessBits > 0 {
		s.BackendBytesPerWirelessBit = float64(s.BackendBytes) / float64(s.WirelessBits)
	}
	if s.Stream.Enabled {
		// Recompute the pooled rates against the sweep's totals (the
		// per-trial merges above passed zero placeholders).
		if s.WirelessBits > 0 {
			s.Stream.EnergyPerBit = s.Stream.EnergyUnits / float64(s.WirelessBits)
		}
		if total := s.MeanSlots * n; total > 0 {
			s.Stream.GoodputBitsPerSlot = float64(s.WirelessBits) / total
		}
	}
	return s
}

// String renders the summary as an aligned text block.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trials %d, %d cycles each, %.0f slots mean airtime\n", s.Trials, s.Cycles, s.MeanSlots)
	fmt.Fprintf(&b, "offered %d pkts, delivered %d (%.1f%%), dropped %d, buffer-dropped %d\n",
		s.OfferedPackets, s.DeliveredPackets, 100*s.DeliveredFraction, s.DroppedPackets, s.BufferDroppedPackets)
	fmt.Fprintf(&b, "sum throughput %.1f bits/slot, Jain fairness %.3f\n", s.SumThroughputBitsPerSlot, s.JainFairness)
	fmt.Fprintf(&b, "latency mean %.1f slots, p95 %.1f slots\n", s.MeanLatencySlots, s.P95LatencySlots)
	fmt.Fprintf(&b, "backend %.4f bytes per wireless bit (%d B / %d b)\n",
		s.BackendBytesPerWirelessBit, s.BackendBytes, s.WirelessBits)
	// The transport and streaming lines render only when their planes
	// ran: legacy summaries keep their exact five-line shape (pinned by
	// TestSummaryStringFormat).
	if s.Transport.Enabled {
		fmt.Fprintf(&b, "transport retransmits %d (timeouts %d), window-limited cycles %d, mean cwnd %.1f\n",
			s.Transport.Retransmits, s.Transport.Timeouts, s.Transport.WindowLimitedCycles, s.Transport.MeanFinalCwnd)
	}
	if s.Stream.Enabled {
		fmt.Fprintf(&b, "streams %d/%d started, startup mean %.0f slots, rebuffers %d (rate %.4f of watch time)\n",
			s.Stream.Started, s.Stream.Streams, s.Stream.MeanStartupSlots, s.Stream.RebufferEvents, s.Stream.RebufferRate)
		fmt.Fprintf(&b, "radio awake %.0f slots, asleep %.0f; energy %.3g units (%.3g per wireless bit)\n",
			s.Stream.AwakeSlots, s.Stream.SleepSlots, s.Stream.EnergyUnits, s.Stream.EnergyPerBit)
	}
	return b.String()
}
