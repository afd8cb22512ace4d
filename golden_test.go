package mopac

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// simulatorThroughputRun is one BenchmarkSimulatorThroughput iteration:
// a busy baseline system, 8 cores × 100k instructions of bwaves.
func simulatorThroughputRun(seed uint64) (Result, error) {
	return Simulate(Config{Design: Baseline, Workload: "bwaves", InstrPerCore: 100_000, Seed: seed})
}

// hammerThroughputRun is one BenchmarkHammerThroughput iteration: a
// 20k-ACT double-sided attack on MoPAC-D at T_RH 500.
func hammerThroughputRun(seed uint64) (AttackResult, error) {
	return Hammer(Config{Design: MoPACD, TRH: 500, Seed: seed}, PatternDoubleSided, 20_000)
}

// throughputGoldens pins the runs behind the two throughput benchmarks
// byte for byte: the SHA-256 of the result JSON for seeds 1-5 and the
// mean simulated TimeNs over them, which the benchmarks report (rounded)
// as simNs/op and hammerNs/op at -benchtime=5x. A change meant to leave
// the simulation alone must leave every value here untouched; a change
// that moves results on purpose regenerates them and says why.
var throughputGoldens = []struct {
	name    string
	run     func(seed uint64) (v any, timeNs int64, err error)
	digests [5]string
	meanNs  float64
}{
	{
		name: "Simulator",
		run: func(seed uint64) (any, int64, error) {
			res, err := simulatorThroughputRun(seed)
			return res, res.TimeNs, err
		},
		digests: [5]string{
			"79a30ad3c77678b5b052b08d9f6b2f21f6ec285257f81668e1d5fedd73ea1231",
			"2182460e6b931588fe22d3ccf0eb915c069f36ff7e4e05f967c8949ebd6cbcf3",
			"69dfa06425aac7c3fc5ddf9864b305798729f2700df724053bb238c5f17eaf44",
			"fca842eb609be50b9e106a9f53f6d2b17e2107011da8afc9ba673d171f6e0700",
			"b4c04855180fad670d6959c8fdbc834f4e49f2555cdf6299a4c026119d273093",
		},
		meanNs: 70_738.2,
	},
	{
		name: "Hammer",
		run: func(seed uint64) (any, int64, error) {
			res, err := hammerThroughputRun(seed)
			return res, res.TimeNs, err
		},
		digests: [5]string{
			"899ae824e907b71441788cebc35ad547e33a4281f60787843bd6c75c250cd60d",
			"f14b8d5776d7cdf957b5d90214a7f09faee18f40bc4c94f21f8af6cbb37e030b",
			"c21e71f6d5f6660e1474c5497ef7de9c7244809677bfb27b7665c3136484d750",
			"52be3384011bb06bcb3d4f09006e498d3011c45730d31d3fd146339ea72abce2",
			"58d00ae84c19f8f3ce7dbf1102b1b941c51eff4cb2ff9411558a3e67a0a0b9bc",
		},
		meanNs: 1_796_998.8,
	},
}

func TestThroughputGolden(t *testing.T) {
	for _, g := range throughputGoldens {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			var total int64
			for i, want := range g.digests {
				seed := uint64(i + 1)
				v, timeNs, err := g.run(seed)
				if err != nil {
					t.Fatal(err)
				}
				total += timeNs
				raw, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(raw)
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("seed %d: result digest %s, want %s", seed, got, want)
				}
			}
			if mean := float64(total) / float64(len(g.digests)); mean != g.meanNs {
				t.Errorf("mean TimeNs %v, want %v", mean, g.meanNs)
			}
		})
	}
}
