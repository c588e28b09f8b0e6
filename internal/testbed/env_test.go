package testbed

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"iaclan/internal/channel"
	"iaclan/internal/cmplxmat"
	"iaclan/internal/mimo"
)

func TestEnvZeroValueIsLegacy(t *testing.T) {
	var e Env
	if e.Noise() != NoisePower {
		t.Fatalf("zero Env noise %v, want %v", e.Noise(), NoisePower)
	}
	if e.EstimationSigma() != channel.EstimationSigma(TrainSymbols) {
		t.Fatal("zero Env estimation sigma diverged from the legacy constant")
	}
	// The zero-value Env must route slot planning through the exact
	// legacy computation: same scenario, same rng seed, identical
	// outcome with and without the field set.
	world := channel.DefaultTestbed(21)
	s := PickScenario(world, 3, 3)
	a, err := RunUplinkSlot(s, 0, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	s.Env = Env{}
	b, err := RunUplinkSlot(s, 0, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.PerClient, b.PerClient) || a.SumRate != b.SumRate {
		t.Fatal("explicit zero Env changed the slot outcome")
	}
}

func TestEnvNoiseScalesEstimationSigma(t *testing.T) {
	e := Env{NoisePower: 4}
	want := 2 * channel.EstimationSigma(TrainSymbols)
	if got := e.EstimationSigma(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("sigma %v, want %v (noise 4 -> 2x)", got, want)
	}
}

func TestNoiseLowersSlotRates(t *testing.T) {
	world := channel.DefaultTestbed(13)
	s := PickScenario(world, 3, 3)
	quiet, err := RunUplinkSlot(s, 0, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	s.Env = Env{NoisePower: 100} // +20 dB of noise
	loud, err := RunUplinkSlot(s, 0, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if loud.SumRate >= quiet.SumRate {
		t.Fatalf("+20 dB noise did not lower the sum rate: %v >= %v", loud.SumRate, quiet.SumRate)
	}
	// The baseline must pay on the same axis.
	base := BaselineTDMARate(s, true)
	s.Env = Env{}
	if quietBase := BaselineTDMARate(s, true); base >= quietBase {
		t.Fatalf("+20 dB noise did not lower the baseline: %v >= %v", base, quietBase)
	}
}

func TestResidualCancelDegradesChains(t *testing.T) {
	// The residual model must cost a wired (uplink, cancellation-chain)
	// slot sum rate; an unwired downlink triangle never cancels and must
	// be bit-identical under either setting.
	world := channel.DefaultTestbed(7)
	up := PickScenario(world, 3, 3)
	exact, err := RunUplinkSlot(up, 0, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	up.Env = Env{ResidualCancel: true}
	residual, err := RunUplinkSlot(up, 0, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if residual.SumRate >= exact.SumRate {
		t.Fatalf("residual cancellation did not cost the chain: %v >= %v", residual.SumRate, exact.SumRate)
	}

	down := PickScenario(world, 3, 3)
	dExact, err := RunDownlinkSlot(down, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	down.Env = Env{ResidualCancel: true}
	dResidual, err := RunDownlinkSlot(down, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if dResidual.SumRate != dExact.SumRate {
		t.Fatalf("residual flag touched an unwired downlink slot: %v != %v", dResidual.SumRate, dExact.SumRate)
	}
}

func TestMCSSlotRatesAreQuantized(t *testing.T) {
	world := channel.DefaultTestbed(17)
	s := PickScenario(world, 3, 3)
	s.Env = Env{MCS: mimo.DefaultRateTable()}
	out, err := RunUplinkSlot(s, 0, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if out.PlannedPerClient == nil {
		t.Fatal("MCS mode must track planned rates")
	}
	// Every per-client rate is a sum of ladder rungs: multiplying by 4
	// (the finest rung granularity is 0.25 bits) must give integers.
	for c, r := range out.PerClient {
		if frac := math.Abs(r*4 - math.Round(r*4)); frac > 1e-9 {
			t.Fatalf("client %d rate %v is not a rung sum", c, r)
		}
		if p := out.PlannedPerClient[c]; r > p {
			t.Fatalf("client %d achieved %v above planned %v", c, r, p)
		}
	}
}

// TestAdaptedBaselineReadsLatestSurvey pins the adapted baseline's
// inputs: the world's current true channels and the last survey's
// estimates. After a fading step without a Retrain it plans on the
// standing estimates and draws nothing; after a Retrain it reads the new
// survey, per AP the noisy estimate of the current channel, drawn in AP
// order from a twin RNG.
func TestAdaptedBaselineReadsLatestSurvey(t *testing.T) {
	world := channel.DefaultTestbed(23)
	s := PickScenario(world, 2, 2)
	s.Env = Env{MCS: mimo.DefaultRateTable()}
	cache := NewSlotCache(s)
	ws := cmplxmat.NewWorkspace()
	rng, twin := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
	cl := s.Clients[0]
	survey := func() []*cmplxmat.Matrix {
		est := make([]*cmplxmat.Matrix, len(s.APs))
		for j, ap := range s.APs {
			est[j] = channel.NoisyEstimate(world.Channel(cl, ap), s.Env.EstimationSigma(), twin)
		}
		return est
	}
	check := func(step string, est []*cmplxmat.Matrix) {
		t.Helper()
		p, a := cache.AdaptedBaselineWS(ws, 0, true, rng)
		trueChans := make([]*cmplxmat.Matrix, len(s.APs))
		for j, ap := range s.APs {
			trueChans[j] = world.Channel(cl, ap)
		}
		wp, wa := mimo.AdaptedBestAPWS(cmplxmat.NewWorkspace(), s.Env.MCS, trueChans, est, NodePower, s.Env.Noise())
		if p != wp || a != wa {
			t.Fatalf("%s: adapted baseline (%v, %v), want (%v, %v)", step, p, a, wp, wa)
		}
		if p <= 0 {
			t.Fatalf("%s: adapted baseline planned no rate in a one-room testbed", step)
		}
		if rng.Int63() != twin.Int63() {
			t.Fatalf("%s: the cache and the twin RNG stand at different positions", step)
		}
	}
	first := survey()
	check("first survey", first)
	world.Perturb(0.5)
	check("fading step", first)
	cache.Retrain()
	check("retrain", survey())
}
