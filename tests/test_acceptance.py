"""Acceptance gate: the nine headline behaviors, one pass/fail line each.

Run order is significant only for shared fixtures; each criterion asserts its
stated tolerance. Lines are printed past pytest's capture so the verdicts are
visible in normal runs.
"""

import time

import numpy as np
import pytest

from hopqa import autograd as ag
from hopqa.checkpoint import load_checkpoint, save_checkpoint
from hopqa.data import SynthConfig, generate_splits
from hopqa.encoder import Document
from hopqa.hops import forward_pass, run_hops
from hopqa.model import init_params
from hopqa.support import Example
from hopqa.train import TrainConfig, train, evaluate

from conftest import hand_params


@pytest.fixture
def verdict(capsys):
    def _report(ok: bool, name: str, detail: str):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"
    return _report


# --------------------------------------------------------------------------
# shared synthetic tasks and the training recipe used by the learning
# criteria (identity output embeddings; see notes in the repo history)

def learn_config(hops: int, seed: int) -> TrainConfig:
    return TrainConfig(h=16, hops=hops, lr0=0.01, batch_size=16,
                       checkpoint_every=10000, max_epochs=10, seed=seed,
                       dropout=0.0, identity_eo=True, dev_subsample=0,
                       embed_init_stddev=3.0)


@pytest.fixture(scope="module")
def task_l1():
    return generate_splits(SynthConfig(chain_length=1, seed=0))


@pytest.fixture(scope="module")
def task_l2():
    return generate_splits(SynthConfig(chain_length=2, n_distractor_facts=2,
                                       seed=0))


def small_example(rng, vocab_size=10, n_cands=3, doc_len=9):
    """Random document/query pair over a toy vocabulary. Symbols 0/1 are
    reserved (placeholder, separator); candidates are 2..n_cands+1."""
    cands = list(range(2, 2 + n_cands))
    symbols = [int(rng.integers(2, vocab_size)) for _ in range(doc_len)]
    symbols[int(rng.integers(doc_len))] = cands[0]  # ensure support exists
    doc = Document(symbols=symbols, raw_tokens=[str(s) for s in symbols])
    q_syms = [int(rng.integers(2, vocab_size)), 0]
    query = Document(symbols=q_syms, raw_tokens=[str(s) for s in q_syms],
                     placeholder_pos=2)
    return Example(document=doc, query=query, gold=cands[0],
                   candidates=cands)


class ToyVocab:
    """Answer rows = candidate id - 2 for the toy examples above."""
    sep_id = 1

    def __init__(self, n_answers):
        self.n_answers = n_answers

    def answer_row(self, sym):
        return sym - 2


# --------------------------------------------------------------------------
# 1. gradient oracle

def test_gradient_oracle(verdict):
    rng = np.random.default_rng(0)
    h, n_cands = 4, 3
    params = init_params(h, 10, n_cands, rng)
    vocab = ToyVocab(n_cands)
    # candidates 2/3/4 occur once each -> M=3; 9 + sep + 2 query tokens = 12
    symbols = [2, 5, 3, 6, 4, 7, 8, 9, 5]
    doc = Document(symbols=symbols, raw_tokens=[str(s) for s in symbols])
    query = Document(symbols=[6, 0], raw_tokens=["6", "0"],
                     placeholder_pos=2)
    ex = Example(document=doc, query=query, gold=2, candidates=[2, 3, 4])

    def f():
        fr = forward_pass(ex, params, vocab, hops=2)
        return ag.sub(ag.logsumexp(fr.scores), ag.pick(fr.scores, 0))

    start = time.time()
    # eps=1e-3: some end-to-end gradients are ~1e-9, where central-difference
    # rounding noise at smaller eps dominates the quantity being checked
    err = ag.grad_check(f, [t for _, t in params.trainable()], eps=1e-3)
    elapsed = time.time() - start
    verdict(err < 1e-4 and elapsed < 60.0, "gradient oracle",
            f"max rel err {err:.2e} (tol 1e-4), {elapsed:.1f}s (limit 60s)")


# --------------------------------------------------------------------------
# 2. straight-line oracle (tape-free reimplementation)

def oracle_forward(ex, p, vocab, hops):
    """Every model equation, plain numpy, no autodiff graph."""
    def npd(t):
        return t.data

    full = ex.document.symbols + [vocab.sep_id] + ex.query.symbols
    emb = npd(p.E_i)[full]

    def gru(direction, order):
        g = p.gru_f if direction == "f" else p.gru_b
        h = np.zeros(p.h)
        states = {}
        for l in order:
            x = emb[l]
            z = 1.0 / (1.0 + np.exp(-(x @ npd(g.W_z) + npd(g.U_z) @ h
                                      + npd(g.b_z))))
            r = 1.0 / (1.0 + np.exp(-(x @ npd(g.W_r) + npd(g.U_r) @ h
                                      + npd(g.b_r))))
            c = np.tanh(x @ npd(g.W_h) + npd(g.U_h) @ (r * h) + npd(g.b_h))
            h = z * h + (1.0 - z) * c
            states[l] = h
        return states

    n = len(full)
    fwd = gru("f", range(n))
    bwd = gru("b", range(n - 1, -1, -1))
    fwd_at = lambda l: fwd[l - 1] if l >= 1 else np.zeros(p.h)
    bwd_at = lambda l: bwd[l - 1] if l <= n else np.zeros(p.h)

    def span_z(l):
        return npd(p.W_q) @ np.concatenate([fwd_at(l - 1), bwd_at(l + 1)])

    cand = set(ex.candidates)
    occ = [l for l, s in enumerate(ex.document.symbols, start=1)
           if s in cand]
    z_mat = np.stack([span_z(l) for l in occ])
    y_i = np.stack([npd(p.E_i)[ex.document.symbols[l - 1]] for l in occ])
    y_o = np.stack([npd(p.E_o)[vocab.answer_row(ex.document.symbols[l - 1])]
                    for l in occ])
    c_mat = npd(p.E_o)[[vocab.answer_row(c) for c in ex.candidates]]
    q = span_z(len(ex.document) + 1 + ex.query.placeholder_pos)

    def softmax(x):
        e = np.exp(x - np.max(x))
        return e / e.sum()

    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    a = np.zeros(p.answer_dim) if p.identity_eo \
        else sig(npd(p.g_a_q)) * (npd(p.U_a_q) @ q)
    a0 = a.copy()
    for _ in range(hops):
        alpha = softmax(z_mat @ q)
        zt, yit, yot = z_mat.T @ alpha, y_i.T @ alpha, y_o.T @ alpha
        eta = np.max(softmax(c_mat @ yot))
        mid = np.zeros(p.h) if p.identity_eo else a0 * yot
        g_a = sig(npd(p.u_a_g) @ np.concatenate([q * zt, mid, [eta]])
                  + npd(p.b_a))
        a = a + g_a * yot
        q_cand = np.tanh(npd(p.U_q_c) @ np.concatenate([q, yit, zt]))
        g_q = sig(npd(p.U_q_g) @ np.concatenate([q, zt]) + npd(p.b_q_g))
        q = g_q * q + (1.0 - g_q) * q_cand
    scores = c_mat @ a
    return scores, softmax(scores)


def test_straight_line_oracle(verdict):
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(100):
        h = int(rng.integers(2, 5))
        n_cands = int(rng.integers(2, 5))
        identity = bool(i % 2)
        params = init_params(h, 12, n_cands, rng, identity_eo=identity)
        vocab = ToyVocab(n_cands)
        ex = small_example(rng, vocab_size=12, n_cands=n_cands,
                           doc_len=int(rng.integers(4, 11)))
        hops = int(rng.integers(1, 4))
        fr = forward_pass(ex, params, vocab, hops)
        scores, probs = oracle_forward(ex, params, vocab, hops)
        worst = max(worst,
                    float(np.max(np.abs(fr.scores.data - scores))),
                    float(np.max(np.abs(fr.probs.data - probs))))
    verdict(worst < 1e-10, "straight-line oracle",
            f"100 instances, max abs dev {worst:.2e} (tol 1e-10)")


# --------------------------------------------------------------------------
# 3. invariant suite

def test_invariant_suite(verdict):
    rng = np.random.default_rng(2)
    trials = 1000
    violations = {"alpha": 0, "gates": 0, "telescope": 0, "shift": 0,
                  "reduction": 0}

    for i in range(trials):
        h, m, c = 3, int(rng.integers(1, 7)), 4
        p = hand_params(
            h, n_answers=c, identity_eo=False,
            U_q_c=rng.normal(size=(h, 3 * h)),
            U_q_g=rng.normal(size=(h, 2 * h)), b_q_g=rng.normal(size=h),
            U_a_q=rng.normal(size=(h, h)), g_a_q=rng.normal(),
            u_a_g=rng.normal(size=2 * h + 1), b_a=rng.normal(),
            E_o=rng.normal(size=(c, h)))
        z = ag.constant(rng.normal(scale=2.0, size=(m, h)))
        yi = ag.constant(rng.normal(size=(m, h)))
        yo = ag.constant(rng.normal(size=(m, h)))
        cand = ag.constant(rng.normal(size=(c, h)))
        q0 = ag.constant(rng.normal(size=h))
        hops = int(rng.integers(1, 4))
        res = run_hops(q0, z, yi, yo, cand, p, hops)

        for t in res.traces:
            if not (np.all(t.alpha >= 0)
                    and abs(t.alpha.sum() - 1.0) < 1e-9):
                violations["alpha"] += 1
            if not (0.0 < t.g_a < 1.0 and 0.0 < t.eta <= 1.0
                    and 0.0 < t.g_q_mean < 1.0):
                violations["gates"] += 1

        # telescoping: a_T = a_0 + sum_t g_a_t * (Y_o^T alpha_t)
        sg = 1.0 / (1.0 + np.exp(-p.g_a_q.data))
        acc = sg * (p.U_a_q.data @ q0.data)
        for t in res.traces:
            acc = acc + t.g_a * (yo.data.T @ t.alpha)
        denom = max(float(np.max(np.abs(res.answer.data))), 1.0)
        if float(np.max(np.abs(res.answer.data - acc))) / denom > 1e-12:
            violations["telescope"] += 1

        # softmax shift invariance of the predicted index
        shift = ag.softmax(ag.constant(res.scores.data + rng.normal() * 10))
        if int(np.argmax(shift.data)) != res.prediction:
            violations["shift"] += 1

    # identity-E_o reduction: scores = per-candidate attention mass
    for _ in range(trials):
        h, m, c = 3, int(rng.integers(1, 7)), 4
        owners = [int(rng.integers(c)) for _ in range(m)]
        p = hand_params(h, n_answers=c, identity_eo=True,
                        U_q_c=rng.normal(size=(h, 3 * h)),
                        U_q_g=rng.normal(size=(h, 2 * h)),
                        b_q_g=rng.normal(size=h))
        z = rng.normal(size=(m, h))
        y_i = rng.normal(size=(m, h))
        q0 = rng.normal(size=h)
        hops = int(rng.integers(1, 4))
        res = run_hops(ag.constant(q0), ag.constant(z), ag.constant(y_i),
                       ag.constant(np.eye(c)[owners]),
                       ag.constant(np.eye(c)), p, hops,
                       force_answer_gate=1.0)
        # replica of the gated query updates, then mass accumulation
        mass = np.zeros(c)
        q = q0.copy()
        for _ in range(hops):
            e = np.exp(z @ q - np.max(z @ q))
            alpha = e / e.sum()
            for k, owner in enumerate(owners):
                mass[owner] += alpha[k]
            zt = z.T @ alpha
            q_cand = np.tanh(p.U_q_c.data @ np.concatenate(
                [q, y_i.T @ alpha, zt]))
            g_q = 1.0 / (1.0 + np.exp(-(p.U_q_g.data @ np.concatenate([q, zt])
                                        + p.b_q_g.data)))
            q = g_q * q + (1.0 - g_q) * q_cand
        if float(np.max(np.abs(res.scores.data - mass))) > 1e-9:
            violations["reduction"] += 1

    total = sum(violations.values())
    verdict(total == 0, "invariant suite",
            f"{trials} trials per invariant, violations {violations}")


# --------------------------------------------------------------------------
# 4. learning, 1-hop

@pytest.mark.slow
def test_learning_one_hop(verdict, task_l1):
    tr, dev, _ = task_l1
    start = time.time()
    res = train(learn_config(1, 0), tr, dev)
    elapsed = time.time() - start
    verdict(res.best_acc >= 0.95 and elapsed < 600.0, "learning, 1-hop",
            f"dev acc {res.best_acc:.3f} (need >= 0.95) in "
            f"{res.epochs_run} epochs, {elapsed:.0f}s (limit 600s)")


# --------------------------------------------------------------------------
# 5. multi-hop gap

@pytest.mark.slow
def test_multi_hop_gap(verdict, task_l2):
    _, dev, _ = task_l2
    passes = 0
    details = []
    for seed, (r2, r1) in enumerate(_l2_models_cache(task_l2)):
        acc2 = evaluate(r2.best_params, dev, hops=2).accuracy
        acc1_model = r1.best_acc
        acc2_at_1 = evaluate(r2.best_params, dev, hops=1).accuracy
        ok = (acc2 - acc1_model >= 0.20) and (acc2 - acc2_at_1 >= 0.15)
        passes += ok
        details.append(f"s{seed}: T2 {acc2:.2f} vs T1-model {acc1_model:.2f},"
                       f" T_eval=1 {acc2_at_1:.2f}")
    verdict(passes >= 4, "multi-hop gap",
            f"{passes}/5 seeds pass; " + "; ".join(details))


_L2_CACHE = {}


def _l2_models_cache(task_l2):
    if "models" not in _L2_CACHE:
        tr, dev, _ = task_l2
        models = []
        for seed in range(5):
            r2 = train(learn_config(2, seed), tr, dev)
            r1 = train(learn_config(1, seed), tr, dev)
            models.append((r2, r1))
        _L2_CACHE["models"] = models
    return _L2_CACHE["models"]


# --------------------------------------------------------------------------
# 6. hop-sweep stability

@pytest.mark.slow
def test_hop_sweep_stability(verdict, task_l2):
    _, dev, _ = task_l2
    r2, _ = _l2_models_cache(task_l2)[0]
    accs = {t: evaluate(r2.best_params, dev, hops=t).accuracy
            for t in range(2, 7)}
    spread = max(accs.values()) - min(accs.values())
    verdict(spread <= 0.05, "hop-sweep stability",
            f"T_eval 2..6 accuracies {accs}, spread {spread:.3f} "
            f"(limit 0.05)")


# --------------------------------------------------------------------------
# 7. schedule conformance

def test_schedule_conformance(verdict):
    cfg = SynthConfig(n_entities=12, n_relations=2, chain_length=1,
                      n_distractor_facts=1, n_examples=8, n_dev=4, n_test=4,
                      seed=3)
    tr, dev, _ = generate_splits(cfg)

    def run(accs, **kw):
        base = dict(h=4, hops=1, batch_size=4, checkpoint_every=100,
                    max_epochs=3, dropout=0.0, seed=0)
        base.update(kw)
        it = iter(accs)
        return train(TrainConfig(**base), tr, dev,
                     evaluator=lambda p: next(it))

    checks = []
    # a drop between epoch checkpoints halves lr once and stops training
    r = run([0.5, 0.4, 0.9])
    checks.append(("halve+stop", r.optimizer.lr == pytest.approx(0.0005)
                   and r.epochs_run == 2))
    # drops before one full epoch never halve
    r = run([0.5, 0.4, 0.6, 0.7, 0.8, 0.9], checkpoint_every=1, max_epochs=2)
    checks.append(("no-early-halve", r.optimizer.lr == pytest.approx(0.001)))
    # a mid-epoch drop after epoch 1 halves but does not stop
    r = run([0.1, 0.2, 0.3, 0.25, 0.35, 0.4], checkpoint_every=1,
            max_epochs=2)
    checks.append(("mid-epoch-halve", r.optimizer.lr == pytest.approx(0.0005)
                   and r.epochs_run == 2))
    # monotone improvement runs the full budget at full lr
    r = run([0.3, 0.6, 0.9])
    checks.append(("full-budget", r.optimizer.lr == pytest.approx(0.001)
                   and r.epochs_run == 3 and r.best_acc == 0.9))
    failed = [n for n, ok in checks if not ok]
    verdict(not failed, "schedule conformance",
            f"{len(checks)} scripted-evaluator checks, failed: "
            f"{failed or 'none'}")


# --------------------------------------------------------------------------
# 8. query-gate ablation probe

def test_query_gate_ablation_probe(verdict):
    """Support attention favors candidate 1, but the query-initialized answer
    favors candidate 0; closing g^a_q must flip the prediction."""
    h = 3
    e_o = np.eye(3)  # orthonormal candidate embeddings, learned-mode shapes
    q0 = np.array([1.0, 0.0, 0.0])
    # one support pair answering candidate 1, perfectly attended
    z = ag.constant(np.array([[5.0, 0.0, 0.0]]))
    yi = ag.constant(np.zeros((1, h)))
    yo = ag.constant(e_o[[1]])
    cand = ag.constant(e_o)
    # a0 = sigmoid(5) * I q0 ~ candidate 0 direction, larger than g_a * yo
    p = hand_params(h, n_answers=3, g_a_q=5.0, U_a_q=np.eye(h),
                    b_a=-2.0, E_o=e_o)
    base = run_hops(ag.constant(q0), z, yi, yo, cand, p, hops=1)
    ablated = run_hops(ag.constant(q0), z, yi, yo, cand, p, hops=1,
                       ablate_query_gate=True)
    ok = base.prediction == 0 and ablated.prediction == 1
    verdict(ok, "query-gate ablation probe",
            f"prediction {base.prediction} -> {ablated.prediction} "
            f"when the query gate is closed (want 0 -> 1)")


# --------------------------------------------------------------------------
# 9. checkpoint round-trip

def test_checkpoint_roundtrip(verdict, task_l1, tmp_path):
    tr, dev, _ = task_l1
    config = learn_config(1, 0)
    params = init_params(config.h, tr.vocab.size, tr.vocab.n_answers,
                         np.random.default_rng(4),
                         identity_eo=config.identity_eo)
    path = tmp_path / "rt.ckpt"
    save_checkpoint(path, config=config, params=params, vocab=tr.vocab)
    loaded = load_checkpoint(path)
    n = 100
    mismatches = 0
    for ex in dev.examples[:n]:
        a = forward_pass(ex, params, tr.vocab, hops=1)
        b = forward_pass(ex, loaded.params, loaded.vocab, hops=1)
        if not (np.array_equal(a.scores.data, b.scores.data)
                and a.prediction == b.prediction):
            mismatches += 1
    verdict(mismatches == 0, "checkpoint round-trip",
            f"{n} examples, {mismatches} score/prediction mismatches "
            f"(need bit-identical)")
