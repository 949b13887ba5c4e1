package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"cimflow/internal/cluster"
	"cimflow/internal/core"
	"cimflow/internal/model"
	"cimflow/internal/serve"
	"cimflow/internal/sim"
	"cimflow/internal/tensor"
)

// Client reaches a cimflow-serve replica (or a router in front of some)
// over the API this package serves, as a cluster.Backend. Statuses map back
// onto typed errors through statusTable, so the router's retry/hedge
// classification treats a remote replica exactly like an in-process one.
type Client struct {
	name   string
	base   string
	client *http.Client

	// shapes remembers each model's input shape (name -> model.Shape) from
	// the first model list that names it, so a routed inference costs one
	// request, not two; a replica that drops a model answers 404 for it.
	shapes sync.Map
}

// NewClient points at a replica's base URL (e.g. "http://10.0.0.7:8080").
// The backend's ring identity is the host:port, so placements survive
// scheme or path cosmetics.
func NewClient(base string) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("cluster: backend url %q: %w", base, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: backend url %q needs scheme and host", base)
	}
	return &Client{name: u.Host, base: strings.TrimRight(base, "/"), client: &http.Client{}}, nil
}

// Name returns the replica's ring identity (host:port).
func (c *Client) Name() string { return c.name }

// unavailable tags a transport error or a reply outside the format as
// retryable on another replica.
func (c *Client) unavailable(err error) error {
	return fmt.Errorf("%w: %s: %v", cluster.ErrBackendUnavailable, c.name, err)
}

// maxReplyBody bounds an infer reply. Its output tensor's shape is not on the
// wire before it; every zoo model reduces its input, so the request's bound
// holds, and the floor admits a model that expands a small input (an MLP head).
func maxReplyBody(input model.Shape) int64 { return max(maxInferBody(input), 1<<20) }

// Infer posts one inference and rebuilds a core.Result from the reply.
// Output bytes cross the wire verbatim, so router-served results stay
// byte-identical to a direct Session.Infer on the replica.
func (c *Client) Infer(ctx context.Context, name string, input tensor.Tensor) (*core.Result, error) {
	body, err := json.Marshal(inferRequest{Data: input.Data, Shape: []int{input.H, input.W, input.C}})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/models/"+url.PathEscape(name)+"/infer", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, c.unavailable(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.statusError(resp)
	}
	var out inferResponse
	limit := maxReplyBody(model.Shape{H: input.H, W: input.W, C: input.C})
	if err := json.NewDecoder(io.LimitReader(resp.Body, limit)).Decode(&out); err != nil {
		return nil, c.unavailable(err)
	}
	if len(out.Shape) != 3 || len(out.Output) != out.Shape[0]*out.Shape[1]*out.Shape[2] {
		return nil, c.unavailable(fmt.Errorf("malformed reply shape %v", out.Shape))
	}
	res := &core.Result{
		Stats:    &sim.Stats{Cycles: out.Cycles},
		Output:   tensor.Tensor{H: out.Shape[0], W: out.Shape[1], C: out.Shape[2], Data: out.Output},
		Seconds:  out.Seconds,
		EnergyMJ: out.EnergyMJ,
	}
	if res.Seconds > 0 {
		res.Throughput = 1 / res.Seconds
	}
	return res, nil
}

// statusError maps the replica's HTTP status back onto typed errors.
func (c *Client) statusError(resp *http.Response) error {
	var body errorBody
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
	}
	return errorFor(resp.StatusCode, c.name, msg)
}

// Models lists the replica's served models (empty on transport failure —
// health checks, not Models, decide placement).
func (c *Client) Models() []string {
	infos, _ := c.models(context.Background())
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return names
}

// InputShape asks the replica only for a model no earlier list has named.
func (c *Client) InputShape(name string) (model.Shape, error) {
	shape, ok := c.shapes.Load(name)
	if !ok {
		if _, err := c.models(context.Background()); err != nil {
			return model.Shape{}, err
		}
		if shape, ok = c.shapes.Load(name); !ok {
			return model.Shape{}, fmt.Errorf("%w: %q on %s", serve.ErrUnknownModel, name, c.name)
		}
	}
	return shape.(model.Shape), nil
}

// maxModelsBody bounds the model list, well under a hundred bytes an entry.
const maxModelsBody = 1 << 20

// models fetches the replica's model list and remembers its shapes.
func (c *Client) models(ctx context.Context) ([]modelInfo, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/models", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, c.unavailable(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.unavailable(fmt.Errorf("models: %s", resp.Status))
	}
	var infos []modelInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxModelsBody)).Decode(&infos); err != nil {
		return nil, c.unavailable(err)
	}
	for _, info := range infos {
		if len(info.InputShape) == 3 {
			c.shapes.Store(info.Name, model.Shape{H: info.InputShape[0], W: info.InputShape[1], C: info.InputShape[2]})
		}
	}
	return infos, nil
}

// Check probes the replica's /healthz.
func (c *Client) Check(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return c.unavailable(err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c.unavailable(fmt.Errorf("healthz: %s", resp.Status))
	}
	return nil
}
