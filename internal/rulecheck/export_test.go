package rulecheck

import "logdiver/internal/taxonomy"

// CheckCorpus is Check against corpus in place of the errlog reference
// corpus; a nil corpus skips the corpus checks.
func CheckCorpus(rules []taxonomy.Rule, corpus []string) []Finding { return check(rules, corpus) }
