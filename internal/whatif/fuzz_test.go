package whatif

import (
	"reflect"
	"testing"
	"time"

	"logdiver/internal/metrics"
)

// FuzzPolicyConfig checks the parser never panics and that accepted
// configs round-trip through the canonical rendering — the property the
// /v1/whatif cache key depends on.
func FuzzPolicyConfig(f *testing.F) {
	f.Add("[policy a]\n")
	f.Add("[policy daly]\ncheckpoint = daly\ncheckpoint-cost = 7m\nrestart-cost = 12m\n")
	f.Add("[policy fixed]\ncheckpoint = fixed\ncheckpoint-interval = 2h\ncheckpoint-cost = 30s\n")
	f.Add("[policy r]\nretry-limit = 3\nretry-backoff = 1m\ndetect-fraction = 0.25\n")
	f.Add("# comment\n; comment\n[policy a]\n\n[policy b]\nretry-limit = 1\n")
	f.Add("[policy a]\ncheckpoint = none\n")
	f.Add(PoliciesString(DefaultPolicies()))
	f.Fuzz(func(t *testing.T, text string) {
		pols, err := ParsePolicies(text)
		if err != nil {
			return
		}
		rendered := PoliciesString(pols)
		again, err := ParsePolicies(rendered)
		if err != nil {
			t.Fatalf("canonical rendering rejected: %v\n%s", err, rendered)
		}
		if !reflect.DeepEqual(pols, again) {
			t.Fatalf("round trip drifted:\n got %+v\nwant %+v\nvia\n%s", again, pols, rendered)
		}
	})
}

// FuzzSimulateMatchesReference: the fuzzer picks the seed, one policy's
// fields, the worker count and a prefix of the fixture's runs, whose MTTI
// is refolded over the prefix when remtti is set (so short prefixes reach
// streams without interrupts); Simulate must marshal to the bytes of the
// reference replay in reference_test.go.
func FuzzSimulateMatchesReference(f *testing.F) {
	for i, p := range referencePolicies() {
		f.Add(int64(i+1), uint8(p.Checkpoint), int64(p.CheckpointInterval), int64(p.CheckpointCost),
			int64(p.RestartCost), uint8(p.RetryLimit), int64(p.RetryBackoff), p.DetectFraction,
			uint8(i), uint16(1000*i), i%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, interval, cost, restart int64,
		retries uint8, backoff int64, detect float64, par uint8, prefix uint16, remtti bool) {
		fx := getFixture(t)
		pol := Policy{
			Name:               "fuzz",
			Checkpoint:         CheckpointKind(kind % 3),
			CheckpointInterval: time.Duration(interval),
			CheckpointCost:     time.Duration(cost),
			RestartCost:        time.Duration(restart),
			RetryLimit:         int(retries % 101),
			RetryBackoff:       time.Duration(backoff),
			DetectFraction:     detect,
		}
		if pol.Validate() != nil {
			return
		}
		in := fx.input
		in.Runs = in.Runs[:int(prefix)%(len(in.Runs)+1)]
		if remtti {
			var err error
			in.MTTI, err = metrics.MTTIByScale(in.Runs, metrics.GeometricBuckets(fx.ds.Topology.NumNodes()), 0)
			if err != nil {
				t.Fatal(err)
			}
		}
		matchReference(t, in, []Policy{pol}, Options{Seed: seed, Parallelism: int(par%8) + 1})
	})
}
