// Package vendors is the one dialect dispatch of the parse stage (paper
// §2, Stage 1): it picks the vendor parser for a configuration text and
// names a device that declares no hostname.
package vendors

import (
	"path/filepath"
	"strings"

	"repro/internal/config"
	"repro/internal/vendors/cisco"
	"repro/internal/vendors/juniper"
)

// DetectDialect guesses the configuration dialect from text: Junos
// configurations are "set ..." command lists, IOS ones are hierarchical.
func DetectDialect(text string) string {
	for _, line := range strings.Split(text, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") || strings.HasPrefix(t, "!") {
			continue
		}
		if strings.HasPrefix(t, "set ") {
			return "junos"
		}
		return "ios"
	}
	return "ios"
}

// Parse parses one device's configuration text with its dialect's parser.
// A device that declares no hostname is named after name, the file's
// basename without its extension.
func Parse(name, text string) (*config.Device, []config.Warning) {
	var d *config.Device
	var w []config.Warning
	switch DetectDialect(text) {
	case "junos":
		d, w = juniper.Parse(text)
	default:
		d, w = cisco.Parse(text)
	}
	if d.Hostname == "" {
		d.Hostname = strings.TrimSuffix(filepath.Base(name), filepath.Ext(name))
	}
	return d, w
}
