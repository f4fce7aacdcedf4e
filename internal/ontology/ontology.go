// Package ontology implements the DiffAudit data type ontology rooted in the
// COPPA and CCPA legal definitions of identifiers and personal information
// (16 C.F.R. § 312.2 and CAL. CIV. Code § 1798.140). The ontology has four
// levels:
//
//	level 1: Identifiers | Personal Information
//	level 2: 8 groups (personal identifiers, device identifiers, ...)
//	level 3: 35 categories used as classification labels
//	level 4: example terms per category, used as few-shot evidence
//
// Level-3 categories are the labels the data type classifier assigns to raw
// data types extracted from network traffic; level-4 terms seed both the
// simulated-LLM classifier and the baseline matchers.
package ontology

import (
	"fmt"
	"strings"
)

// Level1 is the root of the ontology: the two top-level legal buckets.
type Level1 int

const (
	// Identifiers covers data that identifies a user or device, per the
	// COPPA definition of "personal information" identifiers and the CCPA
	// definition of "unique identifier".
	Identifiers Level1 = iota
	// PersonalInformation covers the remaining CCPA personal-information
	// categories: characteristics, history, geolocation, communications,
	// sensor data, and inferences.
	PersonalInformation
)

// String returns the human-readable level-1 name as printed in the paper.
func (l Level1) String() string {
	switch l {
	case Identifiers:
		return "Identifiers"
	case PersonalInformation:
		return "Personal Information"
	default:
		return fmt.Sprintf("Level1(%d)", int(l))
	}
}

// Level2 identifies one of the eight mid-level groups. Table 4 of the paper
// reports flows at this granularity.
type Level2 int

const (
	PersonalIdentifiers Level2 = iota
	DeviceIdentifiers
	PersonalCharacteristics
	PersonalHistoryGroup
	Geolocation
	UserCommunications
	Sensors
	UserInterestsAndBehavior
)

var level2Names = [...]string{
	PersonalIdentifiers:      "Personal Identifiers",
	DeviceIdentifiers:        "Device Identifiers",
	PersonalCharacteristics:  "Personal Characteristics",
	PersonalHistoryGroup:     "Personal History",
	Geolocation:              "Geolocation",
	UserCommunications:       "User Communications",
	Sensors:                  "Sensors",
	UserInterestsAndBehavior: "User Interests and Behaviors",
}

// String returns the group name as printed in the paper.
func (l Level2) String() string {
	if int(l) < len(level2Names) {
		return level2Names[l]
	}
	return fmt.Sprintf("Level2(%d)", int(l))
}

// Level1 returns the legal root bucket that contains this group.
func (l Level2) Level1() Level1 {
	switch l {
	case PersonalIdentifiers, DeviceIdentifiers:
		return Identifiers
	default:
		return PersonalInformation
	}
}

// Level2Groups returns all eight groups in ontology order.
func Level2Groups() []Level2 {
	return []Level2{
		PersonalIdentifiers, DeviceIdentifiers, PersonalCharacteristics,
		PersonalHistoryGroup, Geolocation, UserCommunications, Sensors,
		UserInterestsAndBehavior,
	}
}

// FlowGroups returns the six level-2 groups reported in Table 4 of the paper
// (Personal History and Sensors were not observed in the dataset and are
// omitted from the flow grid).
func FlowGroups() []Level2 {
	return []Level2{
		PersonalIdentifiers, DeviceIdentifiers, PersonalCharacteristics,
		Geolocation, UserCommunications, UserInterestsAndBehavior,
	}
}

// Category is a level-3 classification label.
type Category struct {
	// Name is the canonical label, e.g. "Device Hardware Identifiers".
	Name string
	// Group is the level-2 parent.
	Group Level2
	// Examples are the level-4 terms from Table 5, used as classifier
	// evidence and as few-shot training strings for the baselines.
	Examples []string
	// ObservedInPaper reports whether the category was marked with '*'
	// in Table 2 (observed in the paper's dataset).
	ObservedInPaper bool
}

// Level1 returns the legal root bucket for the category.
func (c *Category) Level1() Level1 { return c.Group.Level1() }

// IsIdentifier reports whether the category falls under the Identifiers
// level-1 bucket. Linkability analysis pairs identifier categories with
// personal-information categories.
func (c *Category) IsIdentifier() bool { return c.Level1() == Identifiers }

// Key returns the normalized lookup key for the category name.
func (c *Category) Key() string { return NormalizeLabel(c.Name) }

// NormalizeLabel lower-cases a label and collapses separators so that
// "Gender/Sex", "gender sex" and "GENDER_SEX" share one key.
func NormalizeLabel(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	prevSep := false
	for _, r := range strings.ToLower(strings.TrimSpace(s)) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			prevSep = false
		default:
			if !prevSep && b.Len() > 0 {
				b.WriteByte(' ')
				prevSep = true
			}
		}
	}
	return strings.TrimSpace(b.String())
}

// byKey indexes the canonical categories at package init.
var byKey = func() map[string]*Category {
	m := make(map[string]*Category, len(categories))
	for i := range categories {
		c := &categories[i]
		k := c.Key()
		if _, dup := m[k]; dup {
			panic("ontology: duplicate category key " + k)
		}
		m[k] = c
	}
	return m
}()

// aliasKey maps alternative spellings used in the paper's tables to the
// canonical categories.
var aliasKey = map[string]string{
	"linked personal ids":              "linked personal identifiers",
	"reasonably linkable personal ids": "reasonably linkable personal identifiers",
	"contact info":                     "contact information",
	"login info":                       "login information",
	"device hardware ids":              "device hardware identifiers",
	"device software ids":              "device software identifiers",
	"device info":                      "device information",
	"genetic info":                     "genetic information",
	"biometric info":                   "biometric information",
	"network connection info":          "network connection information",
	"products advertising":             "products and advertising",
	"app service usage":                "app or service usage",
	"service info":                     "service information",
	"inference about users":            "inferences about users",
	"inferences":                       "inferences about users",
	"protected classifications":        "race", // Table 5 groups these; race is the first listed
}

// Lookup resolves a label (canonical or alias, any casing/punctuation) to
// its category. The second return is false if the label is unknown.
func Lookup(label string) (*Category, bool) {
	k := NormalizeLabel(label)
	if c, ok := byKey[k]; ok {
		return c, true
	}
	if canon, ok := aliasKey[k]; ok {
		return byKey[canon], true
	}
	return nil, false
}

// Categories returns the 35 level-3 categories in ontology order. The slice
// is shared; callers must not modify it.
func Categories() []Category { return categories }

// CategoriesInGroup returns the level-3 categories under a level-2 group.
func CategoriesInGroup(g Level2) []*Category {
	var out []*Category
	for i := range categories {
		if categories[i].Group == g {
			out = append(out, &categories[i])
		}
	}
	return out
}

// ObservedCategories returns the 19 categories marked observed in Table 2.
func ObservedCategories() []*Category {
	var out []*Category
	for i := range categories {
		if categories[i].ObservedInPaper {
			out = append(out, &categories[i])
		}
	}
	return out
}

// ExampleIndex returns a map from every level-4 example term (normalized) to
// its category. Terms appearing in several categories keep the first
// (ontology-order) owner, matching the paper's "first match" treatment.
func ExampleIndex() map[string]*Category {
	m := make(map[string]*Category)
	for i := range categories {
		c := &categories[i]
		for _, e := range c.Examples {
			k := NormalizeLabel(e)
			if _, ok := m[k]; !ok {
				m[k] = c
			}
		}
	}
	return m
}
