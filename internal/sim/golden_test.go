package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mopac/internal/mc"
)

// goldenResults pins the SHA-256 of the Result JSON of a spread of
// runs, so a change that is meant to leave the simulation alone — a
// faster queue, a tighter scan — must leave every one of them
// untouched. A change that
// moves results on purpose regenerates them and says why.
var goldenResults = []struct {
	name string
	cfg  Config
	want string
}{
	{"Baseline/mcf", Config{Design: DesignBaseline, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "f3522804d432512d6bc7f006c773a0d597a14d3db0ced64a936beb0a524e4caf"},
	{"PRAC/mcf", Config{Design: DesignPRAC, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "13e0fb04fc6eebb67ffaf7c63e8cf59e4c7da3e79cef007fdb3ae6a40109f609"},
	{"MoPACC/mcf", Config{Design: DesignMoPACC, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "14ca3380cf3e4f8d7f71d5391914cbec142f7c4b2c6a087c1c44c4e095263d88"},
	{"MoPACD/mcf", Config{Design: DesignMoPACD, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "7af6b4e40b68ac7781bfd05ab2b96bc505ff13a7a629acad71afb4e469277021"},
	{"TRR/mcf", Config{Design: DesignTRR, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "65f1622112587f4b86585c9bd9453631af0010b504dcc51dbb5b0e7b65843464"},
	{"MINT/mcf", Config{Design: DesignMINT, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "b294178c8a35f0d7c3a0fe96744e8b18dd8492bf47d5025f728ebedcbf38dfd4"},
	{"PrIDE/mcf", Config{Design: DesignPrIDE, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "3b5f0f2c581e1ce589187b5173f5edb5a6dc09f7e42b210f4526f7bb0eb587df"},
	{"Chronos/mcf", Config{Design: DesignChronos, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "e24dbdeec3dcffc9eaec794fec54c749be8fa57fdfce05e6de67d4ddbec02461"},
	{"QPRAC/mcf", Config{Design: DesignQPRAC, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "929bfdff16bb7bd4c410837da331b90d181ba3443d384018c1c238b69fc9829c"},
	{"Baseline/add", Config{Design: DesignBaseline, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "20ffc5e1057da2e049351342c7a2fa9384fdd0be4e8c675870837a6b1aeefb5b"},
	{"PRAC/add", Config{Design: DesignPRAC, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "e8a220e621d124fa5c223e6c30b3feb3cb51afc851fabaa520bd6e25118b165d"},
	{"MoPACC/add", Config{Design: DesignMoPACC, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "131cff537efbb216bcfbb7a4df1cdaa3efed424719ba935636729222f7cd4f2e"},
	{"MoPACD/add", Config{Design: DesignMoPACD, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "354a995ca3ad3853360e646f64eba95485c9d2c1819b71eed5610181d93b7686"},
	{"TRR/add", Config{Design: DesignTRR, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "f7043086f179e933e3f9326ca201e578a3cce1edb58fd96ed7728691b6a5bb51"},
	{"MINT/add", Config{Design: DesignMINT, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "a31e1b407e856b054830cd725cf49b821391be92ed4feb7ee38c91920a5b59b3"},
	{"PrIDE/add", Config{Design: DesignPrIDE, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "d083882038272dbef686f6d211b1762d52688394e0ba7da56910de138dbf5ad2"},
	{"Chronos/add", Config{Design: DesignChronos, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "b5a1193f4d139865ffabda17510083783b0e17b4e0c375ae381863966ca4e163"},
	{"QPRAC/add", Config{Design: DesignQPRAC, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "7a41391fa32a516251bbce20e9dca608cc6dd64b2662c6a2c2eb8dd8fa9a3d33"},
	{"MoPACD/attack-oracle", Config{Design: DesignMoPACD, Workload: "attack:refresh-sync:sub=1,bank=27,victim=64053,aggr=4,burst=7,phase=3895,gap=189,spread=5", Cores: 2, InstrPerCore: 40_000, Seed: 2, TrackSecurity: true}, "721f039702483c2744bac0dfaeb3812dd5b69ac99b2a0406d38a1502f4d6c55f"},
	{"MoPACC/mcf/close-page", Config{Design: DesignMoPACC, Workload: "mcf", InstrPerCore: 20_000, Seed: 1, Policy: mc.ClosePage}, "62aec6d3438f3d8049ca0a60477b143b99eae3b7276869b4852e26979d827a59"},
	{"PRAC/add/timeout-page", Config{Design: DesignPRAC, Workload: "add", InstrPerCore: 20_000, Seed: 1, Policy: mc.TimeoutPage, TimeoutNs: 100}, "ec4ff853091f061e59a3f3a814ce5bc2ea91023ade3d96fe7d792160ba5864e8"},
	// Long enough to reach a row closed by timeout and re-activated
	// for a read right after, an ordering the short add run never hits.
	{"PRAC/xalancbmk/timeout-page", Config{Design: DesignPRAC, Workload: "xalancbmk", InstrPerCore: 400_000, Seed: 1, Policy: mc.TimeoutPage, TimeoutNs: 100}, "fe0bd6e123a0a4f794ad8535f0440a66dce4bc7d0018d8e58797b342e1889564"},
}

func TestGoldenResults(t *testing.T) {
	for _, g := range goldenResults {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			res, _ := runFull(t, g.cfg)
			raw := mustJSON(t, res)
			if res.Oracle != nil {
				raw = append(raw, oracleDigest(t, res)...)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != g.want {
				t.Errorf("%s: result digest %s, want %s", g.name, got, g.want)
			}
		})
	}
}
