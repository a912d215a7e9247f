package federation

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"

	"fedfteds/internal/ckpt"
	"fedfteds/internal/comm"
)

// TestServeIdentitySpellingsAgree: Run.Codec "" and "identity" name one
// codec, so the two runs end at the same history, state and checkpoint
// bytes. Two clients, because two updates fold to the same bits in either
// arrival order.
func TestServeIdentitySpellingsAgree(t *testing.T) {
	w, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		hist string
		crc  uint32
		ckpt [][]byte
	}
	var runs []outcome
	for _, spec := range []string{"", comm.CodecIdentity} {
		cfg := testConfig(2)
		cfg.NumClients, cfg.Run.Codec, cfg.Run.CheckpointDir = 2, spec, t.TempDir()
		hist, global, err := servePipes(t, w, cfg, func(conn comm.Conn, id int) error { return honest(w, conn, id, 0) })
		if err != nil {
			t.Fatalf("codec %q: %v", spec, err)
		}
		out := outcome{hist: fmt.Sprintf("%+v", hist), crc: stateCRC(global)}
		for round := 1; round <= cfg.Run.Rounds; round++ {
			blob, err := os.ReadFile(ckpt.Path(cfg.Run.CheckpointDir, round))
			if err != nil {
				t.Fatal(err)
			}
			out.ckpt = append(out.ckpt, blob)
		}
		runs = append(runs, out)
	}
	a, b := runs[0], runs[1]
	if a.hist != b.hist {
		t.Fatalf("histories differ:\n  %s\n  %s", a.hist, b.hist)
	}
	if a.crc != b.crc {
		t.Fatalf("state CRC %08x under \"\", %08x under identity", a.crc, b.crc)
	}
	for i := range a.ckpt {
		if !bytes.Equal(a.ckpt[i], b.ckpt[i]) {
			t.Fatalf("round %d checkpoints differ", i+1)
		}
	}
}

// wireLog collects the codec names one run's participants meet on the wire:
// each Welcome's advertisement and each update's echo.
type wireLog struct {
	mu                 sync.Mutex
	advertised, echoed []string
	welcomes, updates  int
}

// tap wraps a participant's connection so that it records into l.
func (l *wireLog) tap(conn comm.Conn) comm.Conn { return wireTap{conn, l} }

type wireTap struct {
	comm.Conn
	log *wireLog
}

func (c wireTap) Recv() (comm.Envelope, error) {
	env, err := c.Conn.Recv()
	if err == nil && env.Type == comm.MsgWelcome {
		var wel comm.Welcome
		if err := comm.DecodeBody(env, &wel); err != nil {
			return env, err
		}
		c.log.mu.Lock()
		c.log.advertised = append(c.log.advertised, wel.Codecs...)
		c.log.welcomes++
		c.log.mu.Unlock()
	}
	return env, err
}

func (c wireTap) Send(env comm.Envelope) error {
	if env.Type == comm.MsgClientUpdate {
		var u comm.ClientUpdate
		if err := comm.DecodeBody(env, &u); err != nil {
			return err
		}
		c.log.mu.Lock()
		c.log.echoed = append(c.log.echoed, u.Codec)
		c.log.updates++
		c.log.mu.Unlock()
	}
	return c.Conn.Send(env)
}

// check fails unless the taps saw welcomes and updates, and every
// advertisement and echo among them was empty: identity's wire form.
func (l *wireLog) check(t *testing.T, who string, welcomes, updates int) {
	t.Helper()
	if l.welcomes != welcomes || l.updates != updates {
		t.Fatalf("%s: saw %d welcomes and %d updates, want %d and %d", who, l.welcomes, l.updates, welcomes, updates)
	}
	if len(l.advertised) != 0 {
		t.Fatalf("%s: identity session advertised %q, want nothing", who, l.advertised)
	}
	for _, e := range l.echoed {
		if e != "" {
			t.Fatalf("%s: identity update echoed codec %q, want \"\"", who, e)
		}
	}
}

// TestIdentityWireForm: an identity session looks on the wire as sessions
// did before codecs existed. The Welcome Serve sends advertises nothing, and
// neither federation.Client's updates nor a relay's upstream updates echo a
// codec name, whether identity is spelled out or left empty.
func TestIdentityWireForm(t *testing.T) {
	w, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("flat", func(t *testing.T) {
		var log wireLog
		cfg := testConfig(2)
		cfg.Run.Codec = comm.CodecIdentity
		if _, _, err := servePipes(t, w, cfg, func(conn comm.Conn, id int) error {
			return honest(w, log.tap(conn), id, 0)
		}); err != nil {
			t.Fatal(err)
		}
		log.check(t, "clients", cfg.NumClients, cfg.NumClients*cfg.Run.Rounds)
	})
	t.Run("relay", func(t *testing.T) {
		var leaves, relays wireLog
		cfg := treeConfig(1)
		cfg.Run.Codec = comm.CodecIdentity
		global, err := w.Global.Clone()
		if err != nil {
			t.Fatal(err)
		}
		l := comm.NewPipeListener(cfg.Relays)
		var wg sync.WaitGroup
		for r := range cfg.Relays {
			leafL := comm.NewPipeListener(2)
			for i := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := honest(w, leaves.tap(leafL.ClientSide(i)), 2*r+i, 0); err != nil {
						t.Logf("leaf %d: %v", 2*r+i, err)
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := Relay(relays.tap(l.ClientSide(r)), leafL, RelayConfig{RelayID: r, Leaves: 2,
					Rounds: cfg.Run.Rounds, Engine: comm.EngineConfig{Quorum: 1}, LeafCodec: comm.CodecIdentity}); err != nil {
					t.Errorf("relay %d: %v", r, err)
				}
			}()
		}
		_, err = Serve(cfg, l, global, w.Test)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		relays.check(t, "relays", cfg.Relays, cfg.Relays*cfg.Run.Rounds)
		leaves.check(t, "leaves", cfg.NumClients, cfg.NumClients*cfg.Run.Rounds)
	})
}
