package platform

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/permissions"
)

// TestHistoryMatchesSliceOracle drives random interleavings of user
// messages, webhook posts, interaction replies and deletes across
// several channels and checks every read path against a plain slice of
// the messages the write calls returned.
func TestHistoryMatchesSliceOracle(t *testing.T) {
	p, owner, g, general := fixture(t)
	defer p.Close()
	member := addUser(t, p, g, "member")
	bot, err := p.RegisterBot(owner.ID, "replier")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.InstallBot(owner.ID, g.ID, bot.ID, permissions.ViewChannel|permissions.SendMessages); err != nil {
		t.Fatal(err)
	}
	channels := []*Channel{general}
	for i := 1; i < 3; i++ {
		ch, err := p.CreateChannel(owner.ID, g.ID, fmt.Sprintf("c%d", i), ChannelText)
		if err != nil {
			t.Fatal(err)
		}
		channels = append(channels, ch)
	}
	hooks := make([]*Webhook, len(channels))
	for i, ch := range channels {
		if hooks[i], err = p.CreateWebhook(owner.ID, ch.ID, fmt.Sprintf("hook%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(7))
	oracle := make([][]*Message, len(channels))
	post := func(c int, msg *Message, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		oracle[c] = append(oracle[c], msg)
	}
	del := func(c, i int) {
		t.Helper()
		msg := oracle[c][i]
		if err := p.DeleteMessage(owner.ID, channels[c].ID, msg.ID); err != nil {
			t.Fatalf("delete %s: %v", msg.ID, err)
		}
		oracle[c] = append(oracle[c][:i], oracle[c][i+1:]...)
		if err := p.DeleteMessage(owner.ID, channels[c].ID, msg.ID); !errors.Is(err, ErrNotFound) {
			t.Fatalf("second delete of %s: %v", msg.ID, err)
		}
	}
	for step := 0; step < 2000; step++ {
		// Channel 0 takes most traffic so it spans several chunks.
		c := 0
		if rng.Intn(10) < 3 {
			c = 1 + rng.Intn(len(channels)-1)
		}
		ch := channels[c]
		switch op := rng.Intn(20); {
		case op < 10:
			author := []ID{owner.ID, member.ID}[rng.Intn(2)]
			msg, err := p.SendMessage(author, ch.ID, fmt.Sprintf("m%d", step))
			post(c, msg, err)
		case op < 12:
			msg, err := p.SendMessage(owner.ID, ch.ID, fmt.Sprintf("doc%d", step),
				Attachment{Filename: "a.pdf", ContentType: "application/pdf", Data: []byte{byte(step)}},
				Attachment{Filename: "b.docx", ContentType: "application/msword"})
			post(c, msg, err)
		case op < 15:
			msg, err := p.ExecuteWebhook(hooks[c].Token, "", fmt.Sprintf("w%d", step))
			post(c, msg, err)
		case op < 18:
			in, err := p.Interact(member.ID, bot.ID, ch.ID, "cmd", "")
			if err != nil {
				t.Fatal(err)
			}
			msg, err := p.RespondInteraction(bot.ID, g.ID, in.ID, fmt.Sprintf("r%d", step))
			post(c, msg, err)
		default:
			if n := len(oracle[c]); n > 0 {
				del(c, rng.Intn(n))
			}
		}
	}
	// Deletes in channel 0's first, a middle and its last chunk.
	if n := len(oracle[0]); n <= 2*historyChunk+historyChunk/2 {
		t.Fatalf("channel 0 holds %d messages, want more than two chunks", n)
	}
	del(0, 3)
	del(0, historyChunk+10)
	del(0, len(oracle[0])-2)

	for c, ch := range channels {
		want := oracle[c]
		got, err := p.ChannelMessages(ch.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("channel %d: ChannelMessages differs from oracle (%d vs %d messages)", c, len(got), len(want))
		}
		for _, k := range []int{0, 1, 5, historyChunk - 1, historyChunk, historyChunk + 1, len(want), len(want) + 10} {
			got, err := p.History(owner.ID, ch.ID, k)
			if err != nil {
				t.Fatal(err)
			}
			w := want
			if k > 0 && len(w) > k {
				w = w[len(w)-k:]
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("channel %d: History(%d) differs from oracle", c, k)
			}
		}
		for _, msg := range want {
			for _, a := range msg.Attachments {
				got, err := p.Attachment(owner.ID, ch.ID, msg.ID, a.ID)
				if err != nil || !reflect.DeepEqual(*got, a) {
					t.Fatalf("Attachment(%s, %s) = %+v, %v; want %+v", msg.ID, a.ID, got, err, a)
				}
			}
		}
	}
}

// TestHistoryReadsAreCopies: a caller changing a message it read must
// not change what the next reader sees.
func TestHistoryReadsAreCopies(t *testing.T) {
	p, owner, _, general := fixture(t)
	defer p.Close()
	sent, err := p.SendMessage(owner.ID, general.ID, "original", Attachment{Filename: "a.txt"})
	if err != nil {
		t.Fatal(err)
	}
	sent.Content = "changed by sender"
	got, _ := p.History(owner.ID, general.ID, 1)
	got[0].Content = "changed by reader"
	got[0].Attachments[0].Filename = "b.txt"
	again, _ := p.ChannelMessages(general.ID)
	if again[0].Content != "original" || again[0].Attachments[0].Filename != "a.txt" {
		t.Fatalf("stored message changed through a returned pointer: %+v", again[0])
	}
}

// retainedHeap is the live heap after a full collection.
func retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHistoryRetainedSize bounds what history keeps per message, with
// every message sharing one content string: at most 100 bytes per
// message in a busy channel, and under 1 KiB for a channel holding a
// single message.
func TestHistoryRetainedSize(t *testing.T) {
	const content = "size guard"
	p, owner, g, general := fixture(t)
	defer p.Close()

	const n = 100_000
	before := retainedHeap()
	for i := 0; i < n; i++ {
		if _, err := p.SendMessage(owner.ID, general.ID, content); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	per := float64(int64(retainedHeap())-int64(before)) / n
	t.Logf("busy channel: %.1f B per message", per)
	if per > 100 {
		t.Errorf("history retains %.1f B per message, want <= 100", per)
	}

	const channels = 500
	var chans []*Channel
	for i := 0; i < channels; i++ {
		ch, err := p.CreateChannel(owner.ID, g.ID, fmt.Sprintf("quiet%d", i), ChannelText)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	before = retainedHeap()
	for _, ch := range chans {
		if _, err := p.SendMessage(owner.ID, ch.ID, content); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	per = float64(int64(retainedHeap())-int64(before)) / channels
	t.Logf("one-message channel: %.0f B", per)
	if per >= 1024 {
		t.Errorf("a one-message channel retains %.0f B of history, want < 1 KiB", per)
	}
	runtime.KeepAlive(p)
}
