package repro

import (
	"fmt"
	"strings"

	"repro/internal/batfish"
	"repro/internal/campion"
	"repro/internal/cisco"
	"repro/internal/core"
	"repro/internal/exampledata"
	"repro/internal/humanizer"
	"repro/internal/juniper"
	"repro/internal/lightyear"
	"repro/internal/llm"
	"repro/internal/modularizer"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/topology"
	"repro/internal/translate"
)

// GeneratedPrompt is one row of Table 1 / Table 3: an error class and the
// rectification prompt the humanizer generates for it.
type GeneratedPrompt struct {
	Type   string
	Prompt string
}

// Table1RectificationPrompts regenerates Table 1: one sample humanized
// prompt per translation error class, produced by running the real
// verifiers against translations carrying exactly one seeded error.
func Table1RectificationPrompts() ([]GeneratedPrompt, error) {
	orig, warns := cisco.Parse(exampledata.CiscoExample)
	if len(warns) != 0 {
		return nil, fmt.Errorf("example config has warnings: %v", warns)
	}
	var out []GeneratedPrompt

	// Syntax error: the invalid length-ranged prefix-list entry.
	badSyntax := juniper.Print(translate.Golden(orig))
	badSyntax = strings.Replace(badSyntax, "policy-options {\n",
		"policy-options {\n    prefix-list our-networks {\n        1.2.3.0/24-32;\n    }\n", 1)
	if ws := juniper.Check(badSyntax); len(ws) > 0 {
		out = append(out, GeneratedPrompt{Type: "Syntax error", Prompt: humanizer.Syntax(ws[0])})
	}

	// The three Campion classes via single-error injections.
	classes := []struct {
		name  string
		class llm.TranslateError
	}{
		{"Structural mismatch", llm.ErrMissingImportPolicy},
		{"Attribute difference", llm.ErrOSPFCost},
		{"Policy behavior difference", llm.ErrPrefixLenMatch},
	}
	for _, c := range classes {
		model := llm.NewTranslator(llm.TranslateConfig{Seed: 1,
			Inject: map[llm.TranslateError]bool{c.class: true}})
		text, err := model.Complete([]llm.Message{{Role: llm.RoleHuman,
			Content: "Translate the following Cisco configuration into an equivalent " +
				"Juniper configuration.\n\n" + exampledata.CiscoExample}})
		if err != nil {
			return nil, err
		}
		trans, _ := juniper.Parse(text)
		findings := campion.Diff(orig, trans)
		if len(findings) == 0 {
			return nil, fmt.Errorf("seeded class %s produced no finding", c.class)
		}
		out = append(out, GeneratedPrompt{Type: c.name, Prompt: humanizer.Campion(findings[0])})
	}
	return out, nil
}

// Table2Row is one row of Table 2: a translation error class, its type,
// and whether the automated (generated) prompts alone fixed it.
type Table2Row struct {
	Error            string
	Type             string
	FixedByAutomated bool
}

// Table2TranslationErrors regenerates Table 2 by running the VPP loop on
// each error class in isolation and reporting whether a human prompt
// (beyond the task prompt) was needed.
func Table2TranslationErrors() ([]Table2Row, error) {
	types := map[llm.TranslateError]string{
		llm.ErrMissingLocalAS:      "Syntax error",
		llm.ErrPrefixListSyntax:    "Syntax error",
		llm.ErrMissingImportPolicy: "Structure mismatch",
		llm.ErrOSPFCost:            "Attribute error",
		llm.ErrOSPFPassive:         "Attribute error",
		llm.ErrWrongMED:            "Policy error",
		llm.ErrPrefixLenMatch:      "Policy error",
		llm.ErrRedistribution:      "Policy error",
	}
	var out []Table2Row
	for _, class := range llm.AllTranslateErrors() {
		model := llm.NewTranslator(llm.TranslateConfig{Seed: 1,
			Inject: map[llm.TranslateError]bool{class: true}})
		res, err := core.Translate(exampledata.CiscoExample, core.TranslateOptions{Model: model})
		if err != nil {
			return nil, err
		}
		if !res.Verified {
			return nil, fmt.Errorf("class %s did not converge", class)
		}
		_, human := res.Transcript.Counts()
		out = append(out, Table2Row{
			Error:            class.String(),
			Type:             types[class],
			FixedByAutomated: human <= 1, // only the task prompt
		})
	}
	return out, nil
}

// Table3RectificationPrompts regenerates Table 3: sample prompts for the
// three local-synthesis error classes, produced by the real verifiers.
func Table3RectificationPrompts() ([]GeneratedPrompt, error) {
	topo, err := netgen.Star(7)
	if err != nil {
		return nil, err
	}
	var out []GeneratedPrompt

	// Syntax: the community-list regex entry (Table 3's example).
	badCfg := "hostname R6\nip community-list standard COMM_LIST_R6_OUT permit .+\n"
	if ws := batfish.CheckSyntax(badCfg); len(ws) > 0 {
		out = append(out, GeneratedPrompt{Type: "Syntax error", Prompt: humanizer.Syntax(ws[0])})
	}

	// Topology: every Table 3 topology-error variant against R1's spec.
	spec := topo.Router("R1")
	variants := []struct {
		name   string
		mutate func(d *netcfg.Device)
	}{
		{"wrong interface address", func(d *netcfg.Device) { d.Interfaces[0].Address.Addr++ }},
		{"wrong local AS", func(d *netcfg.Device) { d.BGP.ASN = 3 }},
		{"wrong router ID", func(d *netcfg.Device) { d.BGP.RouterID++ }},
		{"missing neighbor", func(d *netcfg.Device) { d.BGP.Neighbors = d.BGP.Neighbors[1:] }},
		{"missing network", func(d *netcfg.Device) { d.BGP.Networks = d.BGP.Networks[1:] }},
		{"network not connected", func(d *netcfg.Device) {
			d.BGP.Networks = append(d.BGP.Networks, netcfg.MustPrefix("7.7.7.0/24"))
		}},
		{"extra neighbor", func(d *netcfg.Device) {
			n := d.BGP.EnsureNeighbor(netcfg.MustPrefix("9.9.9.9/32").Addr)
			n.RemoteAS = 9
		}},
	}
	for _, v := range variants {
		dev := specDevice(spec)
		v.mutate(dev)
		finds := topology.Verify(spec, dev)
		if len(finds) == 0 {
			return nil, fmt.Errorf("topology variant %q produced no finding", v.name)
		}
		out = append(out, GeneratedPrompt{Type: "Topology error (" + v.name + ")",
			Prompt: humanizer.Topology(finds[0])})
	}

	// Semantic: the AND/OR egress filter counterexample.
	model := llm.NewSynthesizer(llm.DefaultSynthConfig())
	res, err := core.Synthesize(topo, core.SynthOptions{Model: model,
		SkipGlobalCheck: true, MaxIterations: 3, MaxAttemptsPerFinding: 100,
		Human: core.NoHuman{}})
	if err == nil {
		_ = res
	}
	// Re-derive the semantic prompt directly from the erroneous R1 config.
	reqs := lightyear.NoTransitSpec(topo)
	synth := llm.NewSynthesizer(llm.DefaultSynthConfig())
	r1cfg, err := r1Config(topo, synth)
	if err != nil {
		return nil, err
	}
	dev, _ := batfish.ParseConfig(r1cfg)
	for _, req := range reqs {
		if req.Kind != lightyear.EgressDropsCommunity {
			continue
		}
		if v, bad := lightyear.Check(&netcfg.Parsed{Device: dev}, req); bad {
			out = append(out, GeneratedPrompt{Type: "Semantic error",
				Prompt: humanizer.Semantic(v)})
			break
		}
	}
	return out, nil
}

// specDevice builds a config IR that exactly satisfies a router spec.
func specDevice(spec *topology.RouterSpec) *netcfg.Device {
	dev := netcfg.NewDevice(spec.Name, netcfg.VendorCisco)
	for _, ifc := range spec.Interfaces {
		p, err := netcfg.ParsePrefix(ifc.Address)
		if err != nil {
			continue
		}
		slash := strings.IndexByte(ifc.Address, '/')
		addr, _ := netcfg.ParseIP(ifc.Address[:slash])
		i := dev.EnsureInterface(ifc.Name)
		i.Address = netcfg.Prefix{Addr: addr, Len: p.Len}
		i.HasAddress = true
	}
	b := dev.EnsureBGP(spec.ASN)
	if id, err := netcfg.ParseIP(spec.RouterID); err == nil {
		b.RouterID = id
	}
	for _, nb := range spec.Neighbors {
		if ip, err := netcfg.ParseIP(nb.PeerIP); err == nil {
			b.EnsureNeighbor(ip).RemoteAS = nb.PeerAS
		}
	}
	for _, n := range spec.Networks {
		if p, err := netcfg.ParsePrefix(n); err == nil {
			b.Networks = append(b.Networks, p)
		}
	}
	return dev
}

// r1Config asks a fresh synthesizer for R1's (erroneous) config.
func r1Config(topo *topology.Topology, synth *llm.Synthesizer) (string, error) {
	for _, task := range modularTasks(topo) {
		if task.router != "R1" {
			continue
		}
		return synth.Complete([]llm.Message{{Role: llm.RoleAutomated, Content: task.prompt}})
	}
	return "", fmt.Errorf("no R1 task")
}

type simpleTask struct{ router, prompt string }

func modularTasks(topo *topology.Topology) []simpleTask {
	var out []simpleTask
	for _, t := range modularizer.Tasks(topo) {
		out = append(out, simpleTask{t.Router, t.Prompt})
	}
	return out
}
