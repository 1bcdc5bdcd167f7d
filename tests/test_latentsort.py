import json
import math

import numpy as np
import pytest

from tokensort import latentsort
from tokensort.core import TokenSet
from tokensort.latentsort import (
    FINAL_LR,
    LGP_ALPHA,
    LGP_BETA,
    PEAK_LR,
    WARMUP_FRAC,
    WARMUP_INIT_LR,
    AdamState,
    TrainConfig,
    _lgp_batch,
    batch_losses_and_grads,
    encode_batch,
    init_model,
    latent_sort,
    latent_sort_corpus,
    learning_rate,
    lgp_terms,
    load_model,
    reconstruction_loss,
    save_model,
    total_loss,
    train,
)

FD_STEP = 1e-6


def _fd_vs_analytic(m, sets, cfg, rng, floor):
    """Max relative error between analytic and central-difference gradients.

    Entries below `floor` (the finite-difference noise scale) are compared
    against the floor instead of their own magnitude.
    """
    _, _, grads = batch_losses_and_grads(m, sets, cfg)
    worst = 0.0
    for p, g in zip(m.params(), grads):
        idxs = {tuple(int(rng.integers(0, s)) for s in p.shape) for _ in range(3)}
        for idx in idxs:
            orig = p[idx]
            p[idx] = orig + FD_STEP
            fp = total_loss(m, sets, cfg)
            p[idx] = orig - FD_STEP
            fm = total_loss(m, sets, cfg)
            p[idx] = orig
            fd = (fp - fm) / (2 * FD_STEP)
            rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), floor)
            worst = max(worst, rel)
    return worst


def _conditioned_case(rng):
    """Random model + batch whose latents are well separated, so the 1e-6
    central difference neither flips the latent order nor drowns in the
    magnitude of the penalty term."""
    while True:
        dim = int(rng.integers(2, 4))
        m = init_model(dim, hidden_sizes=(5, 4), seed=int(rng.integers(1e6)))
        m.encoder.weights[-1] *= 40.0  # spread latents; pair gaps become O(1)
        sets = [rng.uniform(size=(int(rng.integers(2, 5)), dim)) for _ in range(2)]
        h = encode_batch(m, np.concatenate(sets))
        ok = True
        off = 0
        for s in sets:
            gaps = np.diff(np.sort(h[off:off + len(s)]))
            off += len(s)
            if len(gaps) and gaps.min() < 0.2:
                ok = False
        if ok:
            return m, sets


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    cfg = TrainConfig(lgp_coefficient=0.05)
    worst = 0.0
    for _ in range(50):
        m, sets = _conditioned_case(rng)
        f0 = abs(total_loss(m, sets, cfg))
        worst = max(worst, _fd_vs_analytic(m, sets, cfg, rng, floor=1e-4 * max(1.0, f0)))
    assert worst < 1e-4


def test_recon_only_gradients():
    rng = np.random.default_rng(8)
    cfg = TrainConfig(lgp_coefficient=0.0)
    worst = 0.0
    for _ in range(20):
        m, sets = _conditioned_case(rng)
        worst = max(worst, _fd_vs_analytic(m, sets, cfg, rng, floor=1e-4))
    assert worst < 1e-4


def test_lgp_gradient_direct():
    # well-separated latents: no denominator blowup, no floor needed
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        msize = int(rng.integers(3, 7))
        x = rng.uniform(size=(msize, int(rng.integers(2, 4))))
        h = np.cumsum(0.5 + rng.uniform(size=msize))
        _, gh = lgp_terms(x, h)
        for i in range(msize):
            hp = h.copy()
            hp[i] += FD_STEP
            hm = h.copy()
            hm[i] -= FD_STEP
            fd = (lgp_terms(x, hp)[0] - lgp_terms(x, hm)[0]) / (2 * FD_STEP)
            worst = max(worst, abs(fd - gh[i]) / max(abs(fd), abs(gh[i]), 1e-8))
    assert worst < 1e-4


def test_lgp_zero_when_gaps_match_distances():
    # colinear points whose latent gaps plus beta equal their distances over
    # alpha: every g term is 0 up to rounding
    x = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    gaps = np.array([1.0, 2.0]) / LGP_ALPHA - LGP_BETA
    h = np.concatenate([[0.0], np.cumsum(gaps)])
    loss, gh = lgp_terms(x, h)
    assert loss < 1e-20
    assert np.allclose(gh, 0.0, atol=1e-12)


def test_lgp_tied_pair_bounded_at_default_beta():
    # two distinct unit-square tokens on one latent are the penalty's worst
    # case; a beta that only guards the division (1e-6) scores this pair
    # ~4e12, and such spikes swamp Adam's second moment during training
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    loss, _ = lgp_terms(x, np.zeros(2))
    assert loss < 1e3


def test_reconstruction_loss_mean_squared():
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    xh = np.array([[0.5, 0.0], [1.0, 1.0]])
    l2, _ = reconstruction_loss(x, xh)
    assert l2 == pytest.approx(0.25 / 4)


def test_latent_sort_keys_normalized():
    m = init_model(2, hidden_sizes=(8,), seed=0)
    ts = TokenSet(np.random.default_rng(0).uniform(size=(6, 2)))
    seq = latent_sort(m, ts)
    assert seq.keys[0] == 0.0 and seq.keys[-1] == 1.0
    assert np.all(np.diff(seq.keys) >= 0)
    assert TokenSet(seq.rows) == ts


def test_latent_sort_singleton():
    m = init_model(2, seed=0)
    seq = latent_sort(m, TokenSet(np.array([[0.3, 0.4]])))
    assert seq.keys[0] == 0.0


@pytest.mark.parametrize("hidden", [(64, 64), (1,), (1, 6), (6, 1), (3,)])
def test_stacked_latents_equal_per_set_passes(hidden):
    # a stacked pass must give each set the bits of its own pass; a hidden
    # width of 1 sends the decoder-side outer product through the stacked path
    rng = np.random.default_rng(len(hidden) * 10 + hidden[0])
    for n in range(1, 5):
        m = init_model(n, hidden_sizes=hidden, seed=n)
        for size in range(1, 41):
            stacked = rng.normal(size=(5, size, n)) * rng.choice([1e-3, 1.0, 1e3], size=(5, 1, 1))
            h = encode_batch(m, stacked)
            assert h.shape == (5, size)
            for b in range(5):
                assert h[b].tobytes() == encode_batch(m, stacked[b]).tobytes(), (n, size, b)
        # a ragged corpus of sizes 1-40, and a corpus of one size
        for sizes in (np.concatenate([np.arange(1, 41), rng.integers(1, 41, size=40)]), np.full(9, 7)):
            values = rng.normal(size=(int(sizes.sum()), n))
            corpus = latent_sort_corpus(m, values, sizes)
            for k, start in enumerate((np.cumsum(sizes) - sizes).tolist()):
                one = encode_batch(m, values[start : start + sizes[k]])
                assert corpus.sequence(k).raw_keys.tobytes() == np.sort(one, kind="stable").tobytes()


def test_stacked_forward_keeps_activation_shapes():
    m = init_model(3, hidden_sizes=(4, 5), seed=0)
    x = np.random.default_rng(1).normal(size=(2, 6, 3))
    out, acts = m.encoder.forward(x)
    assert out.shape == (2, 6, 1)
    assert [a.shape for a in acts] == [(2, 6, 3), (2, 6, 4), (2, 6, 5), (2, 6, 1)]
    for b in range(2):
        assert out[b].tobytes() == m.encoder.forward(x[b])[0].tobytes()


def test_learning_rate_schedule_shape():
    total = 100
    lrs = [learning_rate(s, total) for s in range(total)]
    warm = int(WARMUP_FRAC * total)
    assert WARMUP_INIT_LR <= lrs[0] < PEAK_LR / 10
    assert max(lrs) == pytest.approx(PEAK_LR, rel=1e-6)
    assert lrs[-1] == pytest.approx(FINAL_LR, abs=1e-6)
    assert all(a <= b * (1 + 1e-12) for a, b in zip(lrs[:warm], lrs[1:warm + 1]))
    assert all(a >= b for a, b in zip(lrs[warm:], lrs[warm + 1:]))


def test_adam_step_moves_against_gradient():
    p = np.array([1.0, -1.0])
    opt = AdamState(p)
    opt.update(p, np.array([1.0, -1.0]), lr=0.1)
    assert p[0] < 1.0 and p[1] > -1.0


def test_train_deterministic():
    rng = np.random.default_rng(4)
    data = [TokenSet(rng.uniform(size=(5, 2))) for _ in range(8)]
    cfg = TrainConfig(epochs=3, hidden_sizes=(6,), seed=11)
    m1, h1 = train(data, cfg)
    m2, h2 = train(data, cfg)
    for a, b in zip(m1.params(), m2.params()):
        assert np.array_equal(a, b)
    assert h1 == h2


def test_train_history_and_convergence(monkeypatch):
    # tokens on a line: a 1-D bottleneck can reconstruct them almost exactly
    rng = np.random.default_rng(5)
    data = []
    for _ in range(200):
        t = rng.uniform(size=(6, 1))
        data.append(TokenSet(np.hstack([t, 2 * t])))
    monkeypatch.setattr(latentsort, "BATCH_SIZE", 16)
    cfg = TrainConfig(epochs=120, hidden_sizes=(32,), lgp_coefficient=0.0, seed=0)
    model, hist = train(data, cfg)
    assert len(hist) == 120
    assert hist[-1]["recon"] < 1e-3
    assert all(np.isfinite(row["recon"]) for row in hist)


def test_model_roundtrip(tmp_path):
    # save -> load -> save keeps the bytes, and the sizes read off the loaded
    # weight shapes are the ones the model was built with
    rng = np.random.default_rng(23)
    p = tmp_path / "m.json"
    for seed in range(40):
        n = int(rng.integers(1, 5))
        hidden = [int(w) for w in rng.integers(1, 6, size=rng.integers(1, 4))]
        m = init_model(n, hidden_sizes=hidden, seed=seed)
        save_model(m, p)
        saved = p.read_bytes()
        back = load_model(p)
        for a, b in zip(m.params(), back.params(), strict=True):
            assert np.array_equal(a, b)
        assert back.token_dim == n
        assert back.encoder.layer_sizes == [n] + hidden + [1]
        assert back.decoder.layer_sizes == [1] + hidden + [n]
        save_model(back, p)
        assert p.read_bytes() == saved


def test_model_file_is_one_json_dumps_line(tmp_path):
    m = init_model(3, hidden_sizes=(7, 5), seed=2)
    m.meta["note"] = "x"
    p = tmp_path / "m.json"
    save_model(m, p)
    text = p.read_text()
    obj = json.loads(text)
    assert list(obj) == ["version", "token_dim", "encoder", "decoder", "meta"]
    assert text == json.dumps(obj) + "\n"


def test_model_version_rejected(tmp_path):
    m = init_model(2, seed=0)
    p = tmp_path / "m.json"
    save_model(m, p)
    obj = json.loads(p.read_text())
    obj["version"] = 99
    p.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        load_model(p)


# ---------------------------------------------------------------------------
# Differential tests: the batched LGP against a per-pair loop oracle.
# ---------------------------------------------------------------------------


def _loop_lgp_terms(x_sorted, h_sorted, alpha, beta):
    """The LGP pair by pair, distances by 1-D np.linalg.norm."""
    m = x_sorted.shape[0]
    grad_h = np.zeros(m)
    loss = 0.0
    for i in range(m - 1):
        d = float(np.linalg.norm(x_sorted[i] - x_sorted[i + 1]))
        s = float(abs(h_sorted[i] - h_sorted[i + 1]))
        denom = s + beta
        g = d / denom - alpha
        loss += 2.0 * g * g
        dl_ds = -4.0 * g * d / (denom * denom)
        sign = 1.0 if h_sorted[i] >= h_sorted[i + 1] else -1.0
        grad_h[i] += dl_ds * sign
        grad_h[i + 1] -= dl_ds * sign
    return loss, grad_h


def _loop_lgp_batch(sets, h):
    """Sum of per-set losses in set order and the gradient w.r.t. h, at
    LGP_ALPHA and LGP_BETA."""
    grad_h = np.zeros_like(h)
    total = 0.0
    offset = 0
    for s in sets:
        msize = s.shape[0]
        hs = h[offset : offset + msize]
        order = np.argsort(hs, kind="stable")
        loss, gh_sorted = _loop_lgp_terms(s[order], hs[order], LGP_ALPHA, LGP_BETA)
        total += loss
        grad_h[offset + order] = gh_sorted
        offset += msize
    return total, grad_h


def _ref_forward(mlp, x):
    """Mlp.forward as plain expressions, each on fresh temporaries."""
    acts = [x]
    a = x
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ w + b
        a = z if l == last else np.tanh(z)
        acts.append(a)
    return a, acts


def _ref_backward(mlp, acts, grad_out):
    """Mlp.backward as plain expressions, each on fresh temporaries."""
    gw = [None] * len(mlp.weights)
    gb = [None] * len(mlp.biases)
    delta = grad_out
    for l in range(len(mlp.weights) - 1, -1, -1):
        if l != len(mlp.weights) - 1:
            delta = delta * (1.0 - acts[l + 1] ** 2)  # tanh'
        gw[l] = acts[l].T @ delta
        gb[l] = delta.sum(axis=0)
        delta = delta @ mlp.weights[l].T
    return delta, gw, gb


def _loop_losses_and_grads(m, sets, cfg):
    """batch_losses_and_grads from the reference passes and the LGP loop oracle."""
    x = np.concatenate(sets, axis=0)
    h_col, enc_acts = _ref_forward(m.encoder, x)
    x_hat, dec_acts = _ref_forward(m.decoder, h_col)
    recon, grad_xhat = reconstruction_loss(x, x_hat)
    grad_h_dec, dec_gw, dec_gb = _ref_backward(m.decoder, dec_acts, grad_xhat)
    lgp_total, grad_h_lgp = _loop_lgp_batch(sets, h_col[:, 0])
    grad_h = grad_h_dec + (cfg.lgp_coefficient / len(sets)) * grad_h_lgp[:, None]
    _, enc_gw, enc_gb = _ref_backward(m.encoder, enc_acts, grad_h)
    return recon, lgp_total / len(sets), enc_gw + enc_gb + dec_gw + dec_gb


def _ref_adam_update(state, params, grads, lr):
    """One Adam step array by array; state is {"t", "m", "v"}."""
    state["t"] += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    bc1 = 1.0 - b1 ** state["t"]
    bc2 = 1.0 - b2 ** state["t"]
    for p, g, mm, vv in zip(params, grads, state["m"], state["v"]):
        mm *= b1
        mm += (1 - b1) * g
        vv *= b2
        vv += (1 - b2) * g * g
        p -= lr * (mm / bc1) / (np.sqrt(vv / bc2) + eps)


def _ref_train(data, cfg):
    """train with the reference step: separate parameter arrays, fresh
    temporaries in every pass and Adam array by array."""
    batch_size = latentsort.BATCH_SIZE
    n = data[0].dim
    model = init_model(n, cfg.hidden_sizes, seed=cfg.seed)
    arrays = [ts.values for ts in data]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    steps_per_epoch = max(1, math.ceil(len(arrays) / batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    params = model.params()
    adam = {"t": 0, "m": [np.zeros_like(p) for p in params], "v": [np.zeros_like(p) for p in params]}
    history = []
    step = 0
    lr = 0.0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(arrays))
        recon_sum = lgp_sum = 0.0
        for b in range(steps_per_epoch):
            idx = perm[b * batch_size : (b + 1) * batch_size]
            if idx.size == 0:
                continue
            recon, lgp, grads = _loop_losses_and_grads(model, [arrays[i] for i in idx], cfg)
            lr = learning_rate(step, total_steps)
            _ref_adam_update(adam, params, grads, lr)
            recon_sum += recon
            lgp_sum += lgp
            step += 1
        history.append({"epoch": epoch, "recon": recon_sum / steps_per_epoch,
                        "lgp": lgp_sum / steps_per_epoch, "lr": lr})
    model.meta.update({"seed": cfg.seed, "epochs": cfg.epochs,
                       "final_recon": history[-1]["recon"], "final_lgp": history[-1]["lgp"]})
    return model, history


def _ragged_sets(rng, count, dim, snap=None):
    """Sets of 1-28 tokens; snapping to a grid makes duplicate tokens, whose
    latents tie exactly."""
    sets = []
    for _ in range(count):
        s = rng.uniform(size=(int(rng.integers(1, 29)), dim))
        sets.append(np.round(s * snap) / snap if snap else s)
    return sets


def test_lgp_batch_matches_loop_oracle():
    rng = np.random.default_rng(21)
    cases = []
    for trial in range(30):
        dim = int(rng.integers(1, 5))
        sets = _ragged_sets(rng, int(rng.integers(1, 40)), dim, snap=(2 if trial % 3 == 0 else None))
        h = rng.normal(size=sum(map(len, sets)))
        if trial % 2:
            h = np.round(h * 2) / 2  # exact latent ties between distinct tokens
        cases.append((sets, h))
    # all latents zero, of either sign; one set; sets of one token
    sets = _ragged_sets(rng, 12, 3, snap=2)
    total = sum(map(len, sets))
    cases += [(sets, np.zeros(total)), (sets, np.where(rng.random(total) < 0.5, -0.0, 0.0)),
              (sets[:1], rng.normal(size=len(sets[0]))),
              ([rng.uniform(size=(1, 2)) for _ in range(5)], rng.normal(size=5)),
              ([rng.uniform(size=(1, 2))], np.array([-0.0])),
              ([rng.uniform(size=(m, 2)) for m in (1, 6, 1, 1, 3, 1)], np.zeros(13))]
    for sets, h in cases:
        total, grad_h = _lgp_batch(np.concatenate(sets), h, [len(s) for s in sets])
        ref_total, ref_grad = _loop_lgp_batch(sets, h)
        assert total.hex() == ref_total.hex()  # bytewise: -0.0 is not +0.0 here
        assert grad_h.tobytes() == ref_grad.tobytes()


def test_lgp_terms_matches_loop_oracle():
    rng = np.random.default_rng(22)
    for msize in range(29):
        x = rng.uniform(size=(msize, 4))
        for h in (np.sort(np.round(rng.normal(size=msize) * 3) / 3), np.zeros(msize)):
            loss, gh = lgp_terms(x, h)
            ref_loss, ref_gh = _loop_lgp_terms(x, h, LGP_ALPHA, LGP_BETA)
            assert loss.hex() == ref_loss.hex()
            assert gh.shape == (msize,) and gh.tobytes() == ref_gh.tobytes()
    # no pair: no loss and a zero gradient, for no token and for one
    for msize in (0, 1):
        loss, gh = lgp_terms(np.ones((msize, 2)), np.ones(msize))
        assert (loss.hex(), gh.tobytes()) == ((0.0).hex(), np.zeros(msize).tobytes())


def test_batch_losses_and_grads_match_loop_oracle():
    rng = np.random.default_rng(23)
    cfg = TrainConfig(lgp_coefficient=0.05)
    for trial in range(6):
        dim = (2, 4)[trial % 2]
        m = init_model(dim, hidden_sizes=(9, 7), seed=trial)
        sets = _ragged_sets(rng, 24, dim, snap=(4 if trial % 3 == 0 else None))
        recon, lgp, grads = batch_losses_and_grads(m, sets, cfg)
        ref_recon, ref_lgp, ref_grads = _loop_losses_and_grads(m, sets, cfg)
        assert (recon, lgp) == (ref_recon, ref_lgp)
        assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))
        h = encode_batch(m, np.concatenate(sets))
        ref_total, _ = _loop_lgp_batch(sets, h)
        assert total_loss(m, sets, cfg) == ref_recon + cfg.lgp_coefficient * (ref_total / len(sets))


def test_train_matches_loop_oracle(tmp_path, monkeypatch):
    rng = np.random.default_rng(24)
    # equal-size 2-D sets, then ragged 4-D sets with grid-snapped ties: the
    # second run's batches have other row counts, so buffers left over from
    # the first run would show
    corpora = [
        [TokenSet(rng.uniform(size=(8, 2))) for _ in range(40)],
        [TokenSet(s) for s in _ragged_sets(rng, 40, 4)] + [TokenSet(s) for s in _ragged_sets(rng, 10, 4, snap=2)],
    ]
    monkeypatch.setattr(latentsort, "BATCH_SIZE", 16)  # several steps an epoch, the last one short
    for k, data in enumerate(corpora):
        cfg = TrainConfig(epochs=2, hidden_sizes=(12, 8), seed=3 + k)
        model, hist = train(data, cfg)
        ref_model, ref_hist = _ref_train(data, cfg)
        assert hist == ref_hist
        assert all(np.array_equal(a, b) for a, b in zip(model.params(), ref_model.params()))
        save_model(model, tmp_path / "model.json")
        save_model(ref_model, tmp_path / "ref.json")
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
