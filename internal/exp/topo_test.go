package exp

import (
	"strings"
	"testing"
)

// mustTopo parses a topology the tests spell in text form.
func mustTopo(s string) Topo {
	t, err := ParseTopo(s)
	if err != nil {
		panic(err)
	}
	return t
}

func TestParseTopo(t *testing.T) {
	full := Topo{Fabric: "mcn5", Batch: true, Admit: true, Repl: true, Mcnt: true, Ops: true}
	for _, c := range []struct {
		in   string
		want Topo
		err  string // substring of the error; "" = must parse
	}{
		{in: "mcn0", want: Topo{Fabric: "mcn0"}},
		{in: "scaleup+batch", want: Topo{Fabric: "scaleup", Batch: true}},
		{in: "10gbe+admit+ops", want: Topo{Fabric: "10gbe", Admit: true, Ops: true}},
		// Suffix order carries no meaning.
		{in: "mcn5+batch+admit", want: Topo{Fabric: "mcn5", Batch: true, Admit: true}},
		{in: "mcn5+admit+batch", want: Topo{Fabric: "mcn5", Batch: true, Admit: true}},
		{in: "mcn5+ops+mcnt+repl+admit+batch", want: full},
		{in: "mcn5+batch+admit+repl+mcnt+ops", want: full},
		// "+repl" implies admission at build time, not in the value, so the
		// recorded name "mcn5+batch+repl" round-trips.
		{in: "mcn5+batch+repl", want: Topo{Fabric: "mcn5", Batch: true, Repl: true}},
		{in: "", err: "unknown fabric"},
		{in: "mcn6", err: `unknown fabric "mcn6"`},
		{in: "+batch", err: "unknown fabric"},
		{in: "mcn5+bach", err: "unknown suffix +bach"},
		{in: "mcn5+", err: "unknown suffix +"},
		{in: "mcn5+batch+batch", err: "+batch repeated"},
		{in: "10gbe+mcnt", err: "+mcnt needs a memory channel"},
		{in: "scaleup+batch+mcnt", err: "+mcnt needs a memory channel"},
	} {
		got, err := ParseTopo(c.in)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("ParseTopo(%q): %v", c.in, err)
		case c.err == "" && got != c.want:
			t.Errorf("ParseTopo(%q) = %+v, want %+v", c.in, got, c.want)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("ParseTopo(%q) error = %v, want one containing %q", c.in, err, c.err)
		}
	}
}

func TestTopoRoundTrip(t *testing.T) {
	var all []Topo
	all = append(all, ServeTopos...)
	all = append(all, ServeAttribTopos...)
	all = append(all, WallBenchTopos...)
	all = append(all, ServeOpsTopo)
	for _, topo := range all {
		back, err := ParseTopo(topo.String())
		if err != nil || back != topo {
			t.Errorf("ParseTopo(%q) = %+v, %v; want %+v", topo.String(), back, err, topo)
		}
	}
	// The grammar line is generated from the same tables the parser reads:
	// every fabric and every suffix it accepts is in it.
	g := TopoGrammar()
	for _, f := range topoFabrics {
		if !strings.Contains(g, f.name) {
			t.Errorf("grammar omits fabric %s: %s", f.name, g)
		}
	}
	for _, s := range topoSuffixes {
		if !strings.Contains(g, "+"+s.name) {
			t.Errorf("grammar omits suffix +%s: %s", s.name, g)
		}
	}
}
