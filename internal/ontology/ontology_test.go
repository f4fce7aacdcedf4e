package ontology

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCategoryCount(t *testing.T) {
	if got := len(Categories()); got != 35 {
		t.Fatalf("ontology has %d level-3 categories, paper defines 35", got)
	}
}

func TestObservedCount(t *testing.T) {
	if got := len(ObservedCategories()); got != 19 {
		t.Fatalf("ontology marks %d categories observed, paper reports 19", got)
	}
}

func TestLevel2GroupCount(t *testing.T) {
	if got := len(Level2Groups()); got != 8 {
		t.Fatalf("got %d level-2 groups, want 8", got)
	}
	if got := len(FlowGroups()); got != 6 {
		t.Fatalf("got %d flow groups, want 6 (Table 4)", got)
	}
}

func TestEveryCategoryHasExamplesAndGroup(t *testing.T) {
	for _, c := range Categories() {
		if len(c.Examples) == 0 {
			t.Errorf("category %q has no level-4 examples", c.Name)
		}
		if c.Group.String() == "" || strings.HasPrefix(c.Group.String(), "Level2(") {
			t.Errorf("category %q has invalid group %v", c.Name, c.Group)
		}
	}
}

func TestLevel1Partition(t *testing.T) {
	var ids, pi int
	for _, c := range Categories() {
		switch c.Level1() {
		case Identifiers:
			ids++
		case PersonalInformation:
			pi++
		default:
			t.Fatalf("category %q has invalid level-1 %v", c.Name, c.Level1())
		}
	}
	if ids != 10 {
		t.Errorf("identifier categories = %d, want 10 (Table 2)", ids)
	}
	if pi != 25 {
		t.Errorf("personal-information categories = %d, want 25 (Table 2)", pi)
	}
}

func TestGroupSizes(t *testing.T) {
	want := map[Level2]int{
		PersonalIdentifiers:      7,
		DeviceIdentifiers:        3,
		PersonalCharacteristics:  11,
		PersonalHistoryGroup:     1,
		Geolocation:              3,
		UserCommunications:       4,
		Sensors:                  1,
		UserInterestsAndBehavior: 5,
	}
	for g, n := range want {
		if got := len(CategoriesInGroup(g)); got != n {
			t.Errorf("group %v has %d categories, want %d", g, got, n)
		}
	}
}

func TestLookupCanonical(t *testing.T) {
	for _, c := range Categories() {
		got, ok := Lookup(c.Name)
		if !ok {
			t.Errorf("Lookup(%q) failed", c.Name)
			continue
		}
		if got.Name != c.Name {
			t.Errorf("Lookup(%q) = %q", c.Name, got.Name)
		}
	}
}

func TestLookupAliases(t *testing.T) {
	cases := map[string]string{
		"Device Hardware Ids.":              "Device Hardware Identifiers",
		"device hardware ids":               "Device Hardware Identifiers",
		"Contact Info":                      "Contact Information",
		"LOGIN_INFO":                        "Login Information",
		"network-connection-info":           "Network Connection Information",
		"Inference About Users":             "Inferences About Users",
		"Reasonably Linkable Personal Ids.": "Reasonably Linkable Personal Identifiers",
		"gender/sex":                        "Gender/Sex",
		"App/Service Usage":                 "App or Service Usage",
	}
	for in, want := range cases {
		got, ok := Lookup(in)
		if !ok {
			t.Errorf("Lookup(%q) failed", in)
			continue
		}
		if got.Name != want {
			t.Errorf("Lookup(%q) = %q, want %q", in, got.Name, want)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	for _, in := range []string{"", "   ", "quantum flux", "zzz"} {
		if _, ok := Lookup(in); ok {
			t.Errorf("Lookup(%q) unexpectedly succeeded", in)
		}
	}
}

func TestNormalizeLabel(t *testing.T) {
	cases := map[string]string{
		"Gender/Sex":         "gender sex",
		"  app   usage  ":    "app usage",
		"Device_Hardware-ID": "device hardware id",
		"ALL CAPS":           "all caps",
		"":                   "",
		"a":                  "a",
		"--x--":              "x",
	}
	for in, want := range cases {
		if got := NormalizeLabel(in); got != want {
			t.Errorf("NormalizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeLabelIdempotent(t *testing.T) {
	f := func(s string) bool {
		n := NormalizeLabel(s)
		return NormalizeLabel(n) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeLabelNeverHasDoubleSpace(t *testing.T) {
	f := func(s string) bool {
		n := NormalizeLabel(s)
		return !strings.Contains(n, "  ") && n == strings.TrimSpace(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExampleIndexCoversAllCategories(t *testing.T) {
	idx := ExampleIndex()
	seen := map[string]bool{}
	for _, c := range idx {
		seen[c.Name] = true
	}
	for _, c := range Categories() {
		if !seen[c.Name] {
			t.Errorf("no example term resolves to category %q", c.Name)
		}
	}
}

func TestExampleIndexKeysNormalized(t *testing.T) {
	for k := range ExampleIndex() {
		if k != NormalizeLabel(k) {
			t.Errorf("example index key %q is not normalized", k)
		}
	}
}

func TestFlowGroupsObservedOnly(t *testing.T) {
	for _, g := range FlowGroups() {
		if g == PersonalHistoryGroup || g == Sensors {
			t.Errorf("flow groups must exclude %v (not observed in paper)", g)
		}
	}
}

func TestLevel2Level1Mapping(t *testing.T) {
	idGroups := map[Level2]bool{PersonalIdentifiers: true, DeviceIdentifiers: true}
	for _, g := range Level2Groups() {
		want := PersonalInformation
		if idGroups[g] {
			want = Identifiers
		}
		if g.Level1() != want {
			t.Errorf("%v.Level1() = %v, want %v", g, g.Level1(), want)
		}
	}
}

// TestCategoryNamesSortedUnique: the 35 canonical labels, sorted, hold no
// duplicate.
func TestCategoryNamesSortedUnique(t *testing.T) {
	names := make([]string, len(categories))
	for i := range categories {
		names[i] = categories[i].Name
	}
	slices.Sort(names)
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("category names not unique at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
}

func TestStringers(t *testing.T) {
	if Identifiers.String() != "Identifiers" {
		t.Error("Identifiers stringer")
	}
	if PersonalInformation.String() != "Personal Information" {
		t.Error("PersonalInformation stringer")
	}
	if Level1(99).String() != "Level1(99)" {
		t.Error("out-of-range Level1 stringer")
	}
	if Level2(99).String() != "Level2(99)" {
		t.Error("out-of-range Level2 stringer")
	}
	if UserInterestsAndBehavior.String() != "User Interests and Behaviors" {
		t.Error("UserInterestsAndBehavior stringer")
	}
}
