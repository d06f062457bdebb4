package wire

import "time"

// Single-observation and unsequenced sends: tests drive a server through
// them. Shipped feeds send read cycles through ReliableClient.SendBatch.

// Send streams one observation through the reliable feed as a batch of
// one.
func (c *ReliableClient) Send(reader, object string, at time.Duration) error {
	return c.SendBatch([]BatchObs{{Reader: reader, Object: object, AtNS: int64(at)}})
}

// Send streams one observation as a batch of one.
func (c *Client) Send(reader, object string, at time.Duration) error {
	return c.SendBatch([]BatchObs{{Reader: reader, Object: object, AtNS: int64(at)}})
}

// SendBatch streams one read cycle of observations, as one batch frame
// per MaxBatchFrame observations.
func (c *Client) SendBatch(batch []BatchObs) error {
	for len(batch) > 0 {
		n := min(len(batch), MaxBatchFrame)
		if err := c.w.Send(&Message{Type: "batch", Batch: batch[:n]}); err != nil {
			return err
		}
		batch = batch[n:]
	}
	return nil
}

// Advance moves the server's virtual clock forward.
func (c *Client) Advance(at time.Duration) error {
	return c.w.Send(&Message{Type: "advance", AtNS: int64(at)})
}
