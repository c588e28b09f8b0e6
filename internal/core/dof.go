package core

// This file captures the paper's Section 5 degrees-of-freedom results as
// executable statements, so the bench harness can check the constructive
// solvers against the analytic bounds (Lemmas 5.1 and 5.2).

// MaxUplinkPackets returns the paper's Lemma 5.2 bound: with M antennas
// per node, three or more APs and enough clients, IAC delivers 2M
// concurrent packets on the uplink.
func MaxUplinkPackets(m int) int {
	if m < 1 {
		return 0
	}
	return 2 * m
}

// UplinkAPsNeeded returns the AP count Lemma 5.2 prescribes for the full
// 2M-packet uplink: "three or more APs". Fewer APs cap the constructive
// chain below the bound (see UplinkPacketsWithAPs); more APs only spread
// the successive-cancellation chain over more decode steps.
func UplinkAPsNeeded(m int) int {
	if m < 1 {
		return 0
	}
	return 3
}

// UplinkChainMaxAPs returns the longest successive-alignment chain the
// constructive solver can spread over distinct APs for M antennas: one
// AP for the free packet, one for the B set (the only AP the A set is
// aligned at), and up to M APs that split the A set one packet at a
// time. APs beyond this add role-assignment diversity but get no decode
// step of their own.
func UplinkChainMaxAPs(m int) int {
	if m < 1 {
		return 0
	}
	return m + 2
}

// UplinkPacketsWithAPs returns the packet count the constructive uplink
// solvers deliver with n cooperating APs and M-antenna nodes: M for a
// single AP (plain MIMO, no cancellation partner); for two APs the
// better of the Section 4b three-packet construction (which aligns one
// pair regardless of M) and single-AP MIMO; and the full Lemma 5.2
// bound of 2M from three APs up — the DoF ceiling extra APs cannot
// raise.
func UplinkPacketsWithAPs(m, n int) int {
	switch {
	case m < 1 || n < 1:
		return 0
	case n == 1:
		return m
	case n == 2:
		if m == 2 {
			return 3
		}
		return m
	default:
		return MaxUplinkPackets(m)
	}
}

// MaxDownlinkPackets returns the paper's Lemma 5.1 bound: with M antennas
// per node the downlink supports max(2M-2, floor(3M/2)) concurrent
// packets. The floor term only wins for M = 2 (3 > 2).
func MaxDownlinkPackets(m int) int {
	if m < 1 {
		return 0
	}
	a := 2*m - 2
	b := 3 * m / 2
	if a > b {
		return a
	}
	return b
}
