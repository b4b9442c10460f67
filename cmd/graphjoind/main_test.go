package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/router"
)

// writeConfig writes a -stores file and returns its path.
func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stores.conf")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// oneLine fails the test unless err is one line containing want.
func oneLine(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("no error, want one naming %q", want)
	}
	if msg := err.Error(); !strings.Contains(msg, want) || strings.Contains(msg, "\n") {
		t.Fatalf("error %q: want one line naming %q", msg, want)
	}
}

func TestStoresConfigRoute(t *testing.T) {
	path := writeConfig(t, `# a routed store and a local one
[social]
route 10.0.0.1:7474/social 10.0.0.2:7474,10.0.0.3:7474/other

[local]
relation follows:2
`)
	specs, err := parseStoresConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].name != "social" || specs[1].name != "local" {
		t.Fatalf("sections %+v, want social then local", specs)
	}
	want := []router.HostSpec{
		{Addr: "10.0.0.1:7474", Store: "social"},
		{Addr: "10.0.0.2:7474"},
		{Addr: "10.0.0.3:7474", Store: "other"},
	}
	if !reflect.DeepEqual(specs[0].route, want) {
		t.Errorf("route %+v, want %+v", specs[0].route, want)
	}
	if specs[1].route != nil || !reflect.DeepEqual(specs[1].relations, []string{"follows:2"}) {
		t.Errorf("local section %+v, want one relation and no route", specs[1])
	}
}

func TestStoresConfigMalformed(t *testing.T) {
	preloads := []string{"relation r:2", "load r=/dev/null", "dataset ca-GrQc", "generate ba 100 400 1", "selectivity 10 1"}
	type tc struct{ name, body, want string }
	cases := []tc{
		{"empty route", "[c]\nroute\n", ":2: "},
		{"empty route host", "[c]\nroute 10.0.0.1:7474,,/s\n", ":2: "},
		{"empty store", "[c]\nroute 10.0.0.1:7474/\n", ":2: "},
		{"route twice", "[c]\nroute 10.0.0.1:7474\n\nroute 10.0.0.2:7474\n", ":4: "},
		{"store twice", "[c]\nroute 10.0.0.1:7474\n[c]\n", ":3: "},
		{"directive before section", "route 10.0.0.1:7474\n", ":1: "},
		{"unknown directive", "[c]\nhosts 10.0.0.1:7474\n", ":2: "},
	}
	for _, p := range preloads {
		cases = append(cases,
			tc{"route then " + p, "[c]\nroute 10.0.0.1:7474\n" + p + "\n", ":3: "},
			tc{p + " then route", "[c]\n" + p + "\nroute 10.0.0.1:7474\n", ":3: "})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := writeConfig(t, c.body)
			_, err := parseStoresConfig(path)
			oneLine(t, err, path+c.want)
		})
	}
}

func TestRouteFlag(t *testing.T) {
	o, err := parseFlags([]string{"-route", "10.0.0.1:7474, 10.0.0.2:7474/s"})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := o.storeSpecs()
	if err != nil {
		t.Fatal(err)
	}
	want := []router.HostSpec{{Addr: "10.0.0.1:7474"}, {Addr: "10.0.0.2:7474", Store: "s"}}
	if len(specs) != 1 || specs[0].name != "default" || !reflect.DeepEqual(specs[0].route, want) {
		t.Fatalf("specs %+v, want the default store routed over %+v", specs, want)
	}

	for _, preload := range [][]string{
		{"-dataset", "ca-GrQc"}, {"-model", "ba"}, {"-relation", "r:2"}, {"-load", "r=/dev/null"},
	} {
		o, err := parseFlags(append([]string{"-route", "10.0.0.1:7474"}, preload...))
		if err != nil {
			t.Fatal(err)
		}
		_, err = o.storeSpecs()
		oneLine(t, err, "-route takes no preload")
	}

	path := writeConfig(t, "[default]\nrelation r:2\n")
	o, err = parseFlags([]string{"-route", "10.0.0.1:7474", "-stores", path})
	if err != nil {
		t.Fatal(err)
	}
	_, err = o.storeSpecs()
	oneLine(t, err, "configured both by flags and by "+path)

	for _, bad := range []string{" , ", "/s", "10.0.0.1:7474/"} {
		o, err := parseFlags([]string{"-route", bad})
		if err != nil {
			t.Fatal(err)
		}
		_, err = o.storeSpecs()
		oneLine(t, err, "-route: ")
	}
}

// TestBadFlagOneLine pins that a bad flag is one error naming the flag (the
// usage text goes nowhere; scripts/integration.sh checks stderr).
func TestBadFlagOneLine(t *testing.T) {
	for _, args := range [][]string{{"-partition", "hash"}, {"-retries", "many"}, {"-route"}} {
		_, err := parseFlags(args)
		oneLine(t, err, args[0])
	}
}
