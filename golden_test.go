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
			"cf9a733c70227a39c726590c0a128df2c9de6778510eedd2c7d1d47a97910ea5",
			"9100e701fbc90830539f8a51c34e8d6018e145db3a38a0efc75a12c55c2863d1",
			"1492e82a555be0267a9ee333721a987fbb9612923220d3dc7b6e6911ce0e32b2",
			"f2de6adfa80c149b8e40beb920d01a56da8e5819157c2ed75ebc970d638da679",
			"8783f690644c8b81dccf313a0af06beb1169e57dfe6b2c4a9d6c40898c89f464",
		},
		meanNs: 71_132,
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
