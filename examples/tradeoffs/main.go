// Tradeoffs: the design space around MoPAC in one run — legacy TRR, the
// low-cost MINT/PrIDE trackers (§9.2), PRAC with the MOAT and QPRAC
// backends (§9.1), and both MoPAC variants — each scored on benign
// slowdown, attack resistance, and ABO behaviour.
package main

import (
	"fmt"
	"log"
	"os"

	"mopac"
	"mopac/internal/plot"
)

type contender struct {
	name string
	cfg  mopac.Config
}

func main() {
	const (
		trh   = 500
		instr = 250_000
		acts  = 60_000
	)
	contenders := []contender{
		{"TRR (legacy)", mopac.Config{Design: mopac.TRR}},
		{"MINT", mopac.Config{Design: mopac.MINT}},
		{"PrIDE", mopac.Config{Design: mopac.PrIDE}},
		{"Chronos", mopac.Config{Design: mopac.Chronos}},
		{"PRAC+MOAT", mopac.Config{Design: mopac.PRAC}},
		{"PRAC+QPRAC", mopac.Config{Design: mopac.QPRAC}},
		{"MoPAC-C", mopac.Config{Design: mopac.MoPACC}},
		{"MoPAC-D", mopac.Config{Design: mopac.MoPACD}},
		{"MoPAC-D+NUP", mopac.Config{Design: mopac.MoPACD, NUP: true}},
	}

	fmt.Printf("design space at T_RH=%d (benign: mcf rate mode; attack: double-sided)\n\n", trh)
	fmt.Printf("%-13s %9s %9s %8s %8s %s\n",
		"design", "slowdown", "verdict", "max-cnt", "alerts", "notes")

	slowChart := plot.New("\nbenign slowdown", "%")
	for _, c := range contenders {
		cfg := c.cfg
		cfg.TRH = trh
		cfg.Workload = "mcf"
		cfg.InstrPerCore = instr
		cfg.Seed = 1
		slow, _, res, err := mopac.CompareToBaseline(cfg)
		if err != nil {
			log.Fatal(err)
		}

		acfg := c.cfg
		acfg.TRH = trh
		acfg.Seed = 1
		att, err := mopac.Hammer(acfg, mopac.PatternDoubleSided, acts)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "SECURE"
		if !att.Secure {
			verdict = "BROKEN"
		}
		note := ""
		switch {
		case c.cfg.Design == mopac.TRR:
			note = "breaks under many-sided patterns"
		case c.cfg.Design == mopac.MINT || c.cfg.Design == mopac.PrIDE:
			note = "tolerates only T_RH >= ~1500-2000 (Table 13)"
		case c.cfg.Design == mopac.QPRAC:
			note = "proactive REF service, near-zero ABOs"
		case c.cfg.Design == mopac.Chronos:
			note = "no tRP inflation; doubled tFAW throttles dense ACTs"
		}
		fmt.Printf("%-13s %8.2f%% %9s %8d %8d %s\n",
			c.name, 100*slow, verdict, att.MaxUnmitigated, res.Dev.Alerts+att.Alerts, note)
		slowChart.Add(c.name, 100*slow)
	}
	fmt.Println()
	if err := slowChart.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
