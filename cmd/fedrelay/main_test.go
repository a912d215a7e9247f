package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RelayID != 0 || cfg.Leaves != 2 || cfg.Rounds != 10 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.Engine.Quorum != 1 || cfg.Engine.RoundDeadline != 0 || cfg.dialRetries != 0 {
		t.Fatalf("fault-tolerance knobs must default off: %+v", cfg)
	}
	if cfg.timeout != 10*time.Second {
		t.Fatalf("dial timeout default %v", cfg.timeout)
	}
}

func TestParseFlagsFullSet(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:9000", "-listen", "127.0.0.1:9001",
		"-relay-id", "3", "-leaves", "4", "-rounds", "7", "-round-deadline", "90s",
		"-quorum", "0.5", "-timeout", "5s", "-dial-retries", "6"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "127.0.0.1:9000" || cfg.listen != "127.0.0.1:9001" {
		t.Fatalf("addresses: %+v", cfg)
	}
	if cfg.RelayID != 3 || cfg.Leaves != 4 || cfg.Rounds != 7 {
		t.Fatalf("topology flags: %+v", cfg)
	}
	if cfg.Engine.RoundDeadline != 90*time.Second || cfg.Engine.Quorum != 0.5 || cfg.timeout != 5*time.Second || cfg.dialRetries != 6 {
		t.Fatalf("engine flags: %+v", cfg)
	}
}

func TestParseFlagsFailFast(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"negative relay id", []string{"-relay-id", "-1"}, "-relay-id"},
		{"zero leaves", []string{"-leaves", "0"}, "-leaves"},
		{"negative leaves", []string{"-leaves", "-2"}, "-leaves"},
		{"zero rounds", []string{"-rounds", "0"}, "-rounds"},
		{"zero quorum", []string{"-quorum", "0"}, "-quorum"},
		{"quorum above one", []string{"-quorum", "1.5"}, "-quorum"},
		{"negative deadline", []string{"-round-deadline", "-10s"}, "-round-deadline"},
		{"negative dial retries", []string{"-dial-retries", "-1"}, "-dial-retries"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := parseFlags(tt.args)
			if err == nil {
				t.Fatalf("args %v parsed without error", tt.args)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}
