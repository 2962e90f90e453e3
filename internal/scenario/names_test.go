package scenario

import (
	"reflect"
	"strings"
	"testing"
)

func TestCanonicalNamesAndAliases(t *testing.T) {
	if got, want := Names(), []string{"roof1", "roof2", "roof3", "residential"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, tc := range []struct{ in, want string }{
		{"roof1", "roof1"}, {"1", "roof1"}, {"Roof1", "roof1"}, {"Roof 1", "roof1"}, {" ROOF1\t", "roof1"},
		{"roof2", "roof2"}, {"2", "roof2"}, {" 2 ", "roof2"},
		{"roof3", "roof3"}, {"3", "roof3"}, {"ROOF 3", "roof3"},
		{"residential", "residential"}, {"res", "residential"}, {"Residential", "residential"}, {" RES ", "residential"},
	} {
		got, err := Canonical(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("Canonical(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"roof9", "4", "all", "", "resi", "roof"} {
		_, err := Canonical(bad)
		if err == nil {
			t.Errorf("Canonical(%q) accepted", bad)
			continue
		}
		for _, name := range []string{"roof1 (1)", "roof2 (2)", "roof3 (3)", "residential (res)"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("Canonical(%q) error %q does not list %s", bad, err, name)
			}
		}
	}
}

func TestByNameBuildsTheNamedScenario(t *testing.T) {
	sc, err := ByName(" Res")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "Residential" {
		t.Fatalf("ByName(res).Name = %q", sc.Name)
	}
	if _, err := ByName("roof9"); err == nil || !strings.Contains(err.Error(), `unknown scenario "roof9"`) {
		t.Fatalf("ByName(roof9) error = %v", err)
	}
}

func TestSelect(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"all", []string{"Roof 1", "Roof 2", "Roof 3"}},
		{"ALL, residential", []string{"Roof 1", "Roof 2", "Roof 3", "Residential"}},
		{"res,all", []string{"Residential", "Roof 1", "Roof 2", "Roof 3"}},
		{"2", []string{"Roof 2"}},
		{"3,roof1, 1 ,Roof 3", []string{"Roof 3", "Roof 1"}},
		{"res,,residential,", []string{"Residential"}},
		{"all,2,roof3", []string{"Roof 1", "Roof 2", "Roof 3"}},
	} {
		scs, err := Select(tc.spec)
		if err != nil {
			t.Errorf("Select(%q): %v", tc.spec, err)
			continue
		}
		var got []string
		for _, sc := range scs {
			got = append(got, sc.Name)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Select(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
	for _, tc := range []struct{ spec, want string }{
		{"1,roof9", `unknown scenario "roof9" (want all, roof1 (1), roof2 (2), roof3 (3), residential (res))`},
		{"", "no scenarios selected"},
		{" , ", "no scenarios selected"},
	} {
		if _, err := Select(tc.spec); err == nil || err.Error() != tc.want {
			t.Errorf("Select(%q) error = %v, want %q", tc.spec, err, tc.want)
		}
	}
}
