package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mopac/internal/mc"
)

// goldenResults pins the SHA-256 of the Result JSON of a spread of
// serial runs. The serial-vs-sharded equality tests cannot catch a
// change to the shared components (controller, device, guards, cores):
// both engines would move together. These digests can, so a change
// that is meant to leave the simulation alone — a faster queue, a
// tighter scan — must leave every one of them untouched. A change that
// moves results on purpose regenerates them and says why.
var goldenResults = []struct {
	name string
	cfg  Config
	want string
}{
	{"Baseline/mcf", Config{Design: DesignBaseline, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "f9b68259a245fffe305591f4df6c35f4a72dc3f8b2d22a419e8b4bb1f6174aa2"},
	{"PRAC/mcf", Config{Design: DesignPRAC, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "7451c2a3ef6d2da03ee09bc9c8305e8304f0f4906d35f08df24a21281737fdce"},
	{"MoPACC/mcf", Config{Design: DesignMoPACC, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "259b21644bf3fb865fd738b0ef3e35065d9b22faa053fe6af10fcd2c5e07fa21"},
	{"MoPACD/mcf", Config{Design: DesignMoPACD, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "3c1eebef6f58cdb09cce4a444603ba43790c3609b7241001d621b93a24c280b0"},
	{"TRR/mcf", Config{Design: DesignTRR, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "e095bd69b7ec18258e3ab3773514a36fa1b565defb4c2e954e44a925334cbda2"},
	{"MINT/mcf", Config{Design: DesignMINT, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "38406d488c1c861a2f5a5e57ce56b6785c5ecedb3118a23dae5d64fc866a36fa"},
	{"PrIDE/mcf", Config{Design: DesignPrIDE, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "971d8578276fb69865be4c412eb2a4adaac02b903f4b0fbba24aad149b6b85a7"},
	{"Chronos/mcf", Config{Design: DesignChronos, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "9d934c1ec271243a5122ffd4bd3892c8e005b4e4fc2f616db32acf796724f3a1"},
	{"QPRAC/mcf", Config{Design: DesignQPRAC, Workload: "mcf", InstrPerCore: 20_000, Seed: 1}, "6fdef39a1671daf7c697b06eb23a18ab43a5fa1e219dbdbdad1763ab615af54d"},
	{"Baseline/add", Config{Design: DesignBaseline, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "36630298db30232565e57d13d7d95142f2a6524578f3c95e472dc69535875f02"},
	{"PRAC/add", Config{Design: DesignPRAC, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "3f339e18bffe3baa94ffd902c8de2bdde676f581771234cdefee9ef77361d758"},
	{"MoPACC/add", Config{Design: DesignMoPACC, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "f9eceb8d6501e4fd8ac2372d2a3d3881b36a81f1c29fe2a8cf4703db8d03fcb9"},
	{"MoPACD/add", Config{Design: DesignMoPACD, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "deea520d2df0ed5a3cda161840bf6168dbd5fa6aa678bde11b78f59fc95861a0"},
	{"TRR/add", Config{Design: DesignTRR, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "0dd0b29efdfd8af20172e8d6c2247956312f32a62041ee550968cf1e1a31b582"},
	{"MINT/add", Config{Design: DesignMINT, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "6957414cf38a1db8a6214bae15d6273222ecf1822107a5f7c13f836c465ae6c9"},
	{"PrIDE/add", Config{Design: DesignPrIDE, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "c1320c01df7688d2bc7d57fc00b8d01c8e8b9e4305aa2c7beb7bd06b32d3ea2e"},
	{"Chronos/add", Config{Design: DesignChronos, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "859374bc05198bc2338cc3f990f89523166a11ea7de04098ecb3860bca3778f5"},
	{"QPRAC/add", Config{Design: DesignQPRAC, Workload: "add", InstrPerCore: 20_000, Seed: 1}, "d1a7d21cddf834e6f14f259faf4d48e1b2cc176c9dd3c8d3391a06de730e1dc1"},
	{"MoPACD/attack-oracle", Config{Design: DesignMoPACD, Workload: "attack:refresh-sync:sub=1,bank=27,victim=64053,aggr=4,burst=7,phase=3895,gap=189,spread=5", Cores: 2, InstrPerCore: 40_000, Seed: 2, TrackSecurity: true}, "4d8838fbf9df6e08f7afc6aafbc94552ca661e51f9b077f73e1879ec4ab499eb"},
	{"MoPACC/mcf/close-page", Config{Design: DesignMoPACC, Workload: "mcf", InstrPerCore: 20_000, Seed: 1, Policy: mc.ClosePage}, "d1addd22c56fdb550d3ce1827d1222728adc860556002eadbf9ec62bd9a78770"},
	{"PRAC/add/timeout-page", Config{Design: DesignPRAC, Workload: "add", InstrPerCore: 20_000, Seed: 1, Policy: mc.TimeoutPage, TimeoutNs: 100}, "b0b665bad00e7eb6d33675c19916cf3f56ae753c283c9d11dcdc732886eacdf0"},
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
