//go:build vettagged

package buildtag

// Variant names the build that compiled this file.
const Variant = "tagged"
