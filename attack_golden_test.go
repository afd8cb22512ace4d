package mopac

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"mopac/internal/attack"
	"mopac/internal/sim"
)

// attackGoldens pins every way an attack run is described and executed
// byte for byte: the SHA-256 of the result JSON of each built-in Hammer
// pattern against the baseline and the paper's three designs, the
// Table 9/10 attack rows, and one small attack-search report. A change
// to how attacks are built or run must leave every digest here
// untouched.
var (
	hammerGoldenDesigns = []Design{Baseline, PRAC, MoPACC, MoPACD}
	hammerGoldens       = map[HammerPattern][4]string{
		PatternDoubleSided: {
			"c387c7ecb34675f383b7eb06f2fbcc44fbd920aa6ec7e513944f94b8b5b3f4a4",
			"feae2deede00bfb509f91947c1dc996e86623729046ee17bd3d575135fb0e2e1",
			"ed6b23f982eb1e4b832d8177ceedc519f3f7ac3f1c5c1ef9cfec155609bb73c9",
			"899ae824e907b71441788cebc35ad547e33a4281f60787843bd6c75c250cd60d",
		},
		PatternSingleSided: {
			"463915cebf877c260b9f64531976f06af871eec2389f35956ec7c0602e957050",
			"7ec09b4b1920e6f8b765a38abe1fcc87a3fdf76646e5bcac28c635d788458b8e",
			"e87347ebe0733d8a63bd154a2c1aad7e2fb4cc04af23caa5da1c8f3ec14ec198",
			"e02b6a6c213e4b378c0cfc05e5f5046d627ba0010b032ec051ca38760ffa1806",
		},
		PatternMultiBank: {
			"a799e24827eec9519c396afcd805e7066ee3339e1902dc6c6c4ef56a142eea5b",
			"e16d3343e49fae7562579a5c32c693a0fda465c6ce5b6f48198763bb6eb335b0",
			"d58e1cd4853d7bbb472b20c6ba97f57bde90f8ac9fb6e1344bfe553a6ce5db54",
			"0f7a060f939976a13100fbabfebc66ba04c04da5019e06017fdc9d1f36958c1c",
		},
		PatternSRQFill: {
			"0b3a0b71182c6090207fd13fd07fc16c54e7d19a67061920fa49714ea0774791",
			"4fb9e5970872a9cf2bb1d966be6b1f4058b6acf20ab74d4a671ef878bfdc3785",
			"ae0956e51f13b8324c9c81379dcaecb45e711a3669e147436cff2737e5fcf22d",
			"7baf1784f791175995f2aad407a57313a94d745464e8033384948930bfa887b2",
		},
		PatternManySided: {
			"7a01294170b4fe193ba98a7d6ea3002c6f6eb926a811092733b0b0cabfd5f799",
			"793027d82ab94c6c73c84eaff2bf7ccae86bad0fdf97386d3bd2d63ff0d3acee",
			"e0d297fb77b2c7faaa31808b26c84c5004314991551c4e24f7fbd9cc0d6e90ef",
			"5fe7744557fb9d576d43d28521eaa78e804d0dc1a8fec37ce2d66b7a5685093e",
		},
	}
	attackRowGoldens = map[string]string{
		"AttacksMoPACC": "8a50307965b3189b07e5c3781af2bf6c89648844a0d54b2a994ef87a1914ea69",
		"AttacksMoPACD": "53bf5b867be7776f900e7ec3c5ffefc2d7cba90a05f63c5167e2269494204b4b",
		"Search":        "dce40a24cb3e14fdeefd277157989620527c11682b66e59b9a254ee3a2d074ff",
	}
)

func digestJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func TestAttackGolden(t *testing.T) {
	for p, want := range hammerGoldens {
		for i, d := range hammerGoldenDesigns {
			p, d, want := p, d, want[i]
			t.Run(fmt.Sprintf("Hammer/%s/%s", p, d), func(t *testing.T) {
				t.Parallel()
				res, err := Hammer(Config{Design: d, TRH: 500, Seed: 1}, p, 20_000)
				if err != nil {
					t.Fatal(err)
				}
				if got := digestJSON(t, res); got != want {
					t.Errorf("result digest %s, want %s", got, want)
				}
			})
		}
	}
	runs := map[string]func() (any, error){
		"AttacksMoPACC": func() (any, error) {
			return sim.NewRunner(Scale{AttackActs: 20_000, Seed: 1}).AttacksMoPACC()
		},
		"AttacksMoPACD": func() (any, error) {
			return sim.NewRunner(Scale{AttackActs: 20_000, Seed: 1}).AttacksMoPACD()
		},
		"Search": func() (any, error) {
			rep, _, err := attack.Search(attack.Options{
				Base: Config{Design: MoPACD, TRH: 500, Seed: 1}, Seed: 1, Budget: 8, TargetActs: 20_000,
			})
			return rep, err
		},
	}
	for name, run := range runs {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			v, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := digestJSON(t, v), attackRowGoldens[name]; got != want {
				t.Errorf("digest %s, want %s", got, want)
			}
		})
	}
}
