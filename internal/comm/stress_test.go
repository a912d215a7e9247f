package comm

import (
	"fmt"
	"sync"
	"testing"

	"fedfteds/internal/tensor"
)

// TestManyClientManyRoundStress drives the full protocol with 8 concurrent
// clients over in-process pipes for 20 rounds, shipping real tensor payloads
// each way, verifying ordering and integrity under concurrency.
func TestManyClientManyRoundStress(t *testing.T) {
	const (
		numClients = 8
		rounds     = 20
	)
	serverConns := make([]Conn, numClients)
	clientConns := make([]Conn, numClients)
	for i := range serverConns {
		serverConns[i], clientConns[i] = Pipe()
	}
	lst := &staticListener{conns: serverConns}

	payload := tensor.New(32, 16)
	for i := range payload.Data() {
		payload.Data()[i] = float32(i)
	}
	stateBlob, err := EncodeTensors([]*tensor.Tensor{payload})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	clientErrs := make([]error, numClients)
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			clientErrs[id] = stressClient(clientConns[id], id)
		}(i)
	}

	sess, err := AcceptClientsCodec(lst, numClients, rounds, "")
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= rounds; round++ {
		updates, err := collectRound(sess, RoundStart{
			Round:          round,
			State:          stateBlob,
			Groups:         []string{"up", "classifier"},
			SelectFraction: 0.5,
			LocalEpochs:    1,
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(updates) != numClients {
			t.Fatalf("round %d: %d updates", round, len(updates))
		}
		for i, u := range updates {
			if u.ClientID != i {
				t.Fatalf("round %d: updates out of order: %d at slot %d", round, u.ClientID, i)
			}
			ts, err := DecodeTensors(u.State)
			if err != nil {
				t.Fatalf("round %d client %d: %v", round, i, err)
			}
			// The stress client echoes the state scaled by its id+1.
			want := payload.Clone()
			want.Scale(float32(i + 1))
			if !ts[0].AllClose(want, 1e-6) {
				t.Fatalf("round %d client %d: payload corrupted", round, i)
			}
		}
	}
	if err := sess.Shutdown("stress complete"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for id, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
}

// stressClient echoes each round's state scaled by (id+1).
func stressClient(conn Conn, id int) error {
	sess, _, err := Join(conn, id, 100)
	if err != nil {
		return err
	}
	for {
		rs, ok, err := sess.NextRound()
		if err != nil {
			return err
		}
		if !ok {
			return sess.Close()
		}
		ts, err := DecodeTensors(rs.State)
		if err != nil {
			return err
		}
		for _, x := range ts {
			x.Scale(float32(id + 1))
		}
		blob, err := EncodeTensors(ts)
		if err != nil {
			return err
		}
		if err := sess.SendUpdate(ClientUpdate{
			ClientID:    id,
			Round:       rs.Round,
			State:       blob,
			NumSelected: 10 + id,
		}); err != nil {
			return fmt.Errorf("round %d: %w", rs.Round, err)
		}
	}
}
