package taxonomy

// The regexp-only reference of ClassifyBytes. No product code calls it: it
// is what TestClassifyBytesMatchesClassify and FuzzClassifyBytes compare the
// automaton against, and it is visible to this package's external tests too.

// Classify returns the category and severity of msg. Unmatched messages
// return (Unclassified, SevInfo).
func (c *Classifier) Classify(msg string) (Category, Severity) {
	for i := range c.rules {
		if c.rules[i].Pattern.MatchString(msg) {
			return c.rules[i].Category, c.rules[i].Severity
		}
	}
	return Unclassified, SevInfo
}
