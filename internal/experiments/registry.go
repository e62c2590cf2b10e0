package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Runner executes one named experiment and returns its rendered text.
type Runner func(Config) (string, error)

// Registry maps experiment names (as used by `mimdraid -exp`) to runners.
var Registry = map[string]Runner{
	"table1": textRunner("table1", func(Config) (string, error) { return Table1().String(), nil }),
	"table2": textRunner("table2", func(c Config) (string, error) {
		r, err := Table2(c)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	}),
	"table3": textRunner("table3", func(c Config) (string, error) { return Table3(c).String(), nil }),
	"summary": textRunner("summary", func(c Config) (string, error) {
		r, err := Summary(c)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	}),
	"fig5":             figRunner(func(c Config) (*Figure, error) { return Figure5(c) }),
	"fig6-cello-base":  figRunner(func(c Config) (*Figure, error) { return Figure6(c, "cello-base") }),
	"fig6-cello-disk6": figRunner(func(c Config) (*Figure, error) { return Figure6(c, "cello-disk6") }),
	"fig7-cello-base":  figRunner(func(c Config) (*Figure, error) { return Figure7(c, "cello-base") }),
	"fig7-cello-disk6": figRunner(func(c Config) (*Figure, error) { return Figure7(c, "cello-disk6") }),
	"fig8":             figRunner(Figure8),
	"fig9-cello-base":  figRunner(func(c Config) (*Figure, error) { return Figure9(c, "cello-base") }),
	"fig9-tpcc":        figRunner(func(c Config) (*Figure, error) { return Figure9(c, "tpcc") }),
	"fig10-cello-base": figRunner(func(c Config) (*Figure, error) { return Figure10(c, "cello-base") }),
	"fig10-tpcc":       figRunner(func(c Config) (*Figure, error) { return Figure10(c, "tpcc") }),
	"fig11-cello-base": figRunner(func(c Config) (*Figure, error) { return Figure11(c, "cello-base") }),
	"fig11-tpcc":       figRunner(func(c Config) (*Figure, error) { return Figure11(c, "tpcc") }),
	"fig12":            figRunner(Figure12),
	"fig13":            figRunner(Figure13),
	"ablation-placement": figRunner(func(c Config) (*Figure, error) {
		return AblationReplicaPlacement(c), nil
	}),
	"ablation-slack":         figRunner(AblationSlack),
	"ablation-intratrack":    figRunner(AblationIntraTrack),
	"section2.5":             figRunner(Section25),
	"advisor":                figRunner(AdvisorDemo),
	"sensitivity":            figRunner(Sensitivity),
	"breakdown":              figRunner(Breakdown),
	"tcq":                    figRunner(TCQ),
	"ablation-aging":         figRunner(AblationAging),
	"ablation-coalesce":      figRunner(AblationCoalesce),
	"ablation-mirror":        figRunner(AblationMirrorSched),
	"ablation-opportunistic": figRunner(AblationOpportunistic),
	"bigarray":               figRunner(BigArray),
	"chaos":                  figRunner(Chaos),
	"degraded-rebuild":       figRunner(DegradedRebuild),
	"fail-slow":              figRunner(FailSlow),
	"scrub":                  figRunner(Scrub),
	"service":                figRunner(Service),
	"slo-chaos":              figRunner(SLOChaos),
	"brick-loss":             figRunner(BrickLoss),
}

func figRunner(f func(Config) (*Figure, error)) Runner {
	return func(c Config) (string, error) {
		fig, err := f(c)
		if err != nil {
			return "", err
		}
		switch c.Format {
		case "csv":
			return fig.CSV(), nil
		case "json":
			return fig.JSON()
		default:
			return fig.Render(), nil
		}
	}
}

// textRunner adapts a table-shaped experiment (no Figure) to the json
// format: the rendered text rides in a `{figure, text}` document so a
// machine consumer still gets one JSON value per experiment.
func textRunner(name string, f Runner) Runner {
	return func(c Config) (string, error) {
		out, err := f(c)
		if err != nil || c.Format != "json" {
			return out, err
		}
		b, err := json.MarshalIndent(struct {
			Figure string `json:"figure"`
			Text   string `json:"text"`
		}{name, out}, "", "  ")
		if err != nil {
			return "", err
		}
		return string(b) + "\n", nil
	}
}

// Names returns the registered experiment names, sorted.
func Names() []string {
	var out []string
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by name.
func Run(name string, c Config) (string, error) {
	r, ok := Registry[name]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(c)
}
