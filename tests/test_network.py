import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from certsurv import network
from certsurv.network import (ConfigurationError, InputError, Network,
                              ParamGrads, ShapeError,
                              TrainingDivergenceError, _keep, _slope,
                              adam_step, backward_batch, forward_batch,
                              init_adam, init_network, input_grads_batch)

from conftest import leaky_relu, leaky_relu_grad, random_net


class TestInit:
    def test_paper_architecture_shapes(self):
        net = init_network([3, 50, 50, 1], 0.01, seed=7)
        assert [w.shape for w in net.weights] == [(50, 3), (50, 50), (1, 50)]
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_single_affine_map(self):
        net = init_network([1, 1], seed=12)
        assert net.biases[0][0] == 0.0
        assert net.weights[0].shape == (1, 1)

    def test_deterministic_for_seed(self):
        a = init_network([4, 8, 1], seed=3)
        b = init_network([4, 8, 1], seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_init_scale(self):
        net = init_network([100, 50, 1], seed=0)
        bound = 1.0 / np.sqrt(100)
        assert np.all(np.abs(net.weights[0]) <= bound)

    @pytest.mark.parametrize("dims", [[3], [3, 0, 1], [3, -2, 1], [3, 5, 2]])
    def test_invalid_dims(self, dims):
        with pytest.raises(ConfigurationError):
            init_network(dims)

    @pytest.mark.parametrize("slope", [0.0, 1.0, -0.1, 1.5, np.nan])
    def test_invalid_slope(self, slope):
        with pytest.raises(ConfigurationError):
            init_network([2, 1], leaky_slope=slope)


class TestStructure:
    """Network checks every model built or loaded from outside."""

    @staticmethod
    def _params(dims):
        return ([np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:])],
                [np.zeros(o) for o in dims[1:]])

    @pytest.mark.parametrize("dims", [[3], [3, 0, 1], [3, 4, 2]])
    def test_invalid_dims(self, dims):
        with pytest.raises(ConfigurationError):
            Network(dims, *self._params(dims))

    @pytest.mark.parametrize("slope", [0.0, 1.0, 1.5, -0.1, np.nan])
    def test_invalid_slope(self, slope):
        with pytest.raises(ConfigurationError):
            Network([3, 4, 1], *self._params([3, 4, 1]), slope)

    def test_short_weight_row(self):
        weights, biases = self._params([3, 4, 1])
        weights[0] = weights[0][:, :2]
        with pytest.raises(ShapeError):
            Network([3, 4, 1], weights, biases)

    def test_long_bias(self):
        weights, biases = self._params([3, 4, 1])
        biases[1] = np.zeros(2)
        with pytest.raises(ShapeError):
            Network([3, 4, 1], weights, biases)


class TestForward:
    def test_affine_identity_case(self):
        net = Network([2, 1], [np.array([[1.0, -2.0]])], [np.array([0.5])])
        out, _ = forward_batch(net, np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert out.tolist() == [0.5, -0.5]

    def test_leaky_relu_definition(self):
        z = np.array([-1.0, 0.0, 2.0])
        out = leaky_relu(z, 0.01)
        assert out[0] == -0.01
        assert out[1] == 0.0
        assert out[2] == 2.0

    def test_matches_independent_interpreter(self):
        # Re-evaluate the composition with a deliberately naive loop.
        rng = np.random.default_rng(5)
        net = random_net(rng, [2, 8, 1])
        x = rng.normal(size=2)

        def naive(net, x):
            a = list(x)
            for k, (W, b) in enumerate(zip(net.weights, net.biases)):
                z = [sum(W[i][j] * a[j] for j in range(len(a))) + b[i]
                     for i in range(W.shape[0])]
                if k < len(net.weights) - 1:
                    a = [v if v >= 0 else net.leaky_slope * v for v in z]
                else:
                    a = z
            return a[0]

        out, _ = forward_batch(net, x[None, :])
        assert out[0] == pytest.approx(naive(net, x), rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        net = random_net(rng, [3, 5, 1])
        X = rng.normal(size=(1, 3))
        assert np.array_equal(forward_batch(net, X)[0], forward_batch(net, X)[0])

    def test_shape_error(self):
        net = init_network([3, 1])
        with pytest.raises(ShapeError):
            forward_batch(net, [[1.0, 2.0]])

    def test_nonfinite_input(self):
        net = init_network([2, 1])
        with pytest.raises(InputError):
            forward_batch(net, [[np.nan, 0.0]])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5),
           st.lists(st.integers(1, 12), min_size=1, max_size=4),
           st.floats(0.01, 0.9), st.integers(1, 32),
           st.sampled_from([1e-170, 1.0, 1e150, 1e300]))
    @example(seed=2, d=2, hidden=[5, 1], slope=0.1, n=16, scale=1e-170)
    def test_caches_hold_activation_and_slope(self, seed, d, hidden, slope,
                                              n, scale):
        # Huge weights overflow to inf and then NaN (inf - inf); tiny ones
        # underflow, which with -0.0 biases can leave -0.0 (as in the
        # example).  The cached slope and activation must still be the two
        # functions' bits.
        rng = np.random.default_rng(seed)
        net = random_net(rng, [d, *hidden, 1], slope=slope, scale=2.0)
        for p in net.params:
            p *= scale
        for b in net.biases:
            b[rng.random(b.shape) < 0.5] = -0.0
        X = rng.normal(size=(n, d))
        with np.errstate(all="ignore"):
            _, (layer_inputs, pre_acts, slopes) = forward_batch(net, X)
        assert len(slopes) == len(hidden) == len(layer_inputs) - 1
        for k, z in enumerate(pre_acts[:-1]):
            assert (slopes[k].tobytes()
                    == leaky_relu_grad(z, slope).tobytes())
            assert (layer_inputs[k + 1].tobytes()
                    == leaky_relu(z, slope).tobytes())


class TestBackward:
    def test_affine_gradient(self):
        net = Network([2, 1], [np.array([[1.0, -2.0]])], [np.array([0.5])])
        _, caches = forward_batch(net, [[0.3, 0.7]])
        grads, input_grads = backward_batch(net, caches, np.ones(1))
        assert np.allclose(input_grads[0], [1.0, -2.0])
        assert np.allclose(grads.weights[0], [[0.3, 0.7]])
        assert np.allclose(grads.biases[0], [1.0])

    def test_zero_upstream(self):
        rng = np.random.default_rng(2)
        net = random_net(rng, [3, 4, 1])
        _, caches = forward_batch(net, rng.normal(size=(1, 3)))
        grads, input_grads = backward_batch(net, caches, np.zeros(1))
        assert np.all(input_grads == 0.0)
        assert all(np.all(w == 0.0) for w in grads.weights)

    def test_finite_difference_agreement(self):
        # Every partial both for inputs and parameters, 100 random pairs.
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(100):
            net = random_net(rng, [3, 5, 1])
            x = rng.normal(size=(1, 3))
            _, caches = forward_batch(net, x)
            grads, input_grads = backward_batch(net, caches, np.ones(1))
            for j in range(3):
                xp, xm = x.copy(), x.copy()
                xp[0, j] += h
                xm[0, j] -= h
                fd = (forward_batch(net, xp)[0][0]
                      - forward_batch(net, xm)[0][0]) / (2 * h)
                assert abs(fd - input_grads[0, j]) <= 1e-4 * max(abs(fd), 1e-3)
            for k, W in enumerate(net.weights):
                i = int(rng.integers(W.shape[0]))
                j = int(rng.integers(W.shape[1]))
                W[i, j] += h
                fp = forward_batch(net, x)[0][0]
                W[i, j] -= 2 * h
                fm = forward_batch(net, x)[0][0]
                W[i, j] += h
                fd = (fp - fm) / (2 * h)
                got = grads.weights[k][i, j]
                assert abs(fd - got) <= max(1e-4 * abs(fd), 1e-7)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5),
           st.lists(st.integers(1, 12), max_size=4), st.floats(0.01, 0.9),
           st.integers(1, 64))
    def test_input_pass_equals_full_backward(self, seed, d, hidden, slope, n):
        rng = np.random.default_rng(seed)
        net = random_net(rng, [d, *hidden, 1], slope=slope, scale=2.0)
        _, caches = forward_batch(net, rng.normal(size=(n, d)))
        upstream = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
        got = input_grads_batch(net, caches, upstream)
        assert got.tobytes() == backward_batch(net, caches, upstream)[1].tobytes()


class TestAdam:
    def test_zero_grads_keep_parameters(self):
        net = init_network([2, 3, 1], seed=0)
        state = init_adam(net)
        new_net, new_state = adam_step(state, net, ParamGrads.zeros_like(net))
        for w0, w1 in zip(net.weights, new_net.weights):
            assert np.array_equal(w0, w1)
        assert new_state.step == 1

    def test_first_step_magnitude(self):
        # Scalar parameter, g=2: bias correction makes the step ~ -lr.
        net = Network([1, 1], [np.array([[1.0]])], [np.array([0.0])])
        state = init_adam(net, lr=1e-3)
        grads = ParamGrads([np.array([[2.0]])], [np.array([0.0])])
        new_net, _ = adam_step(state, net, grads)
        delta = new_net.weights[0][0, 0] - 1.0
        assert delta == pytest.approx(-1e-3, rel=1e-6)

    def test_converges_on_quadratic(self):
        # f(w) = (w - 3)^2 from w=0: run the optimizer as its own oracle.
        # The rate is sized so 200 steps close most of the distance without
        # entering the oscillatory regime around the optimum.
        net = Network([1, 1], [np.array([[0.0]])], [np.array([0.0])])
        state = init_adam(net, lr=2e-2)
        losses = []
        for _ in range(200):
            w = net.weights[0][0, 0]
            losses.append((w - 3.0) ** 2)
            grads = ParamGrads([np.array([[2.0 * (w - 3.0)]])],
                               [np.array([0.0])])
            net, state = adam_step(state, net, grads)
        assert abs(net.weights[0][0, 0] - 3.0) < 0.5
        # monotone decrease after burn-in
        tail = losses[10:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_inputs_unchanged(self):
        # train() keeps a network as its best without a copy
        rng = np.random.default_rng(5)
        net = random_net(rng, [3, 4, 1])
        grads = ParamGrads([rng.normal(size=w.shape) for w in net.weights],
                           [rng.normal(size=b.shape) for b in net.biases])
        state = adam_step(init_adam(net), net, grads)[1]
        arrays = (*net.params, net.flat, state.m, state.v, *grads.weights,
                  *grads.biases, grads.flat)
        before = [a.tobytes() for a in arrays]
        new_net, new_state = adam_step(state, net, grads)
        assert [a.tobytes() for a in arrays] == before
        # nor may a result share an input's memory, to be written later
        for out in (new_net.flat, new_state.m, new_state.v):
            assert not any(np.shares_memory(out, a) for a in arrays)

    def test_nonfinite_gradient_raises(self):
        net = init_network([2, 1], seed=0)
        state = init_adam(net)
        bad = ParamGrads.zeros_like(net)
        bad.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingDivergenceError):
            adam_step(state, net, bad)



def _four_list_adam_step(t, lr, b1, b2, eps, weights, biases, grads,
                         m_w, v_w, m_b, v_b):
    """Adam with separate weight and bias moment lists, layer by layer: the
    oracle adam_step must match bit for bit.  Returns the new (weights,
    biases, m_w, v_w, m_b, v_b)."""
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    out = ([], [], [], [], [], [])
    for k in range(len(weights)):
        for params, g, m_list, v_list, new_p, nm, nv in (
                (weights, grads.weights[k], m_w, v_w, out[0], out[2], out[3]),
                (biases, grads.biases[k], m_b, v_b, out[1], out[4], out[5])):
            m = b1 * m_list[k] + (1.0 - b1) * g
            v = b2 * v_list[k] + (1.0 - b2) * g * g
            m_hat = m / corr1
            v_hat = v / corr2
            new_p.append(params[k] - lr * m_hat / (np.sqrt(v_hat) + eps))
            nm.append(m)
            nv.append(v)
    return out


def _same_bytes(xs, ys):
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), d=st.integers(1, 5),
       hidden=st.lists(st.integers(1, 6), max_size=3),
       steps=st.integers(1, 6), lr=st.sampled_from([1e-3, 2e-2]),
       log_scales=st.lists(st.floats(-8.0, 8.0), min_size=6, max_size=6))
def test_adam_step_matches_four_list_update(seed, d, hidden, steps, lr,
                                            log_scales):
    # one flat moment vector in parameter order changes no bit of the update
    rng = np.random.default_rng(seed)
    net = random_net(rng, [d, *hidden, 1])
    state = init_adam(net, lr=lr)
    ref = (net.weights, net.biases,
           *([np.zeros_like(p) for p in params]
             for params in (net.weights, net.weights, net.biases, net.biases)))
    for t, log_scale in zip(range(1, steps + 1), log_scales):
        scale = 10.0 ** log_scale
        grads = ParamGrads([rng.normal(size=w.shape) * scale for w in net.weights],
                           [rng.normal(size=b.shape) * scale for b in net.biases])
        net, state = adam_step(state, net, grads)
        ref = _four_list_adam_step(t, lr, 0.9, 0.999, 1e-8, *ref[:2], grads,
                                   *ref[2:])
        weights, biases, m_w, v_w, m_b, v_b = ref
        assert state.step == t
        assert _same_bytes(net.weights, weights)
        assert _same_bytes(net.biases, biases)
        # the moments are flat vectors in parameter order
        assert state.m.tobytes() == b"".join(a.tobytes() for a in (*m_w, *m_b))
        assert state.v.tobytes() == b"".join(a.tobytes() for a in (*v_w, *v_b))


def _is_flat_layout(obj):
    """obj.weights and obj.biases are views of obj.flat, one C-contiguous
    float64 vector, end to end in [*weights, *biases] order."""
    flat, start = obj.flat, 0
    if not (flat.ndim == 1 and flat.dtype == np.float64
            and flat.flags.c_contiguous and flat.flags.owndata):
        return False
    for a in (*obj.weights, *obj.biases):
        if (a.base is not flat
                or a.ctypes.data != flat.ctypes.data + start * flat.itemsize):
            return False
        start += a.size
    return start == flat.size


class TestFlatLayout:
    def test_every_network_and_gradient_is_one_buffer(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, [3, 5, 4, 1])
        _, caches = forward_batch(net, rng.normal(size=(6, 3)))
        built = Network([1, 1], [np.array([[1.0]])], [np.array([0.0])])
        grads = ParamGrads([rng.normal(size=w.shape) for w in net.weights],
                           [rng.normal(size=b.shape) for b in net.biases])
        stepped, _ = adam_step(init_adam(net), net, grads)
        objects = [net, init_network([2, 1], seed=1), built, stepped, grads,
                   ParamGrads.zeros_like(net),
                   backward_batch(net, caches, rng.normal(size=6))[0],
                   ParamGrads([np.array([[2.0]])], [np.array([0.0])]),
                   ParamGrads.zeros_like(net).add_scaled(grads, 0.5).scale(3.0)]
        for obj in objects:
            assert _is_flat_layout(obj)

    def test_built_from_separate_arrays_copies_them(self):
        w, b = np.array([[1.0, 2.0]]), np.array([3])
        net = Network([2, 1], [w], [b])
        assert net.flat.tobytes() == np.array([1.0, 2.0, 3.0]).tobytes()
        assert not np.shares_memory(net.flat, w)
        net.weights[0][0, 1] = 5.0  # a view writes into the buffer
        assert net.flat[1] == 5.0 and w[0, 1] == 2.0

    def test_step_and_zero_gradients_take_their_new_buffer_as_is(
            self, monkeypatch):
        # adam_step and zeros_like make their buffer themselves, so they
        # build on it without the copy that packing separate arrays makes
        rng = np.random.default_rng(4)
        net = random_net(rng, [3, 5, 4, 1])
        grads = ParamGrads([rng.normal(size=w.shape) for w in net.weights],
                           [rng.normal(size=b.shape) for b in net.biases])
        state = init_adam(net)

        def no_copy(obj):
            raise AssertionError("copied into a second buffer")

        monkeypatch.setattr(network, "_pack", no_copy)
        stepped, _ = adam_step(state, net, grads)
        zeros = ParamGrads.zeros_like(net)
        for obj in (stepped, zeros):
            assert _is_flat_layout(obj)
            assert all(np.shares_memory(a, obj.flat)
                       for a in (*obj.weights, *obj.biases))
            assert not np.shares_memory(obj.flat, net.flat)
        assert (stepped.layer_dims, stepped.leaky_slope) == (
            net.layer_dims, net.leaky_slope)
        assert zeros.flat.tobytes() == np.zeros(net.flat.size).tobytes()
        zeros.biases[1][2] = 7.0  # a view writes into the buffer
        assert zeros.flat[net.flat.size - 3] == 7.0


# float64 bit patterns a select must carry through unchanged: NaN of both
# signs with several payloads (quiet and signalling), +-inf, +-0.0,
# subnormals and +-1e308
SPECIAL_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                0xFFF800000000ABCD, 0x7FF0000000000001, 0xFFF4000000000000,
                0x7FF0000000000000, 0xFFF0000000000000, 0x0000000000000000,
                0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
                *np.array([1e308, -1e308]).view(np.uint64).tolist()]
FLOAT_BITS = st.one_of(
    st.sampled_from(SPECIAL_BITS),
    st.floats(allow_nan=True, allow_infinity=True).map(
        lambda v: int(np.float64(v).view(np.uint64))))
# (mask shape, operand shape) of every call site: a per-neuron or per-pair
# matrix (rows, n), and the stacked chains' (2, rows, n) mask over a
# per-neuron operand or over a stacked one
SITE_SHAPES = [((), ()), ((2,), ()), ((2,), (2,))]


def _floats(bits, shape):
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(shape)


class TestBranchFreeSelects:
    """`_keep` and `_slope` return `np.where`'s bytes."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_keep_is_where_bit_for_bit(self, data):
        mask_lead, x_lead = data.draw(st.sampled_from(SITE_SHAPES))
        rows, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        mask_shape, x_shape = (*mask_lead, rows, n), (*x_lead, rows, n)
        mask = np.array(data.draw(st.lists(
            st.booleans(), min_size=int(np.prod(mask_shape)),
            max_size=int(np.prod(mask_shape))))).reshape(mask_shape)
        size = int(np.prod(x_shape))
        x = _floats(data.draw(st.lists(FLOAT_BITS, min_size=size,
                                       max_size=size)), x_shape)
        got, want = _keep(mask, x), np.where(mask, x, 0.0)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([(), (2,)]), st.integers(1, 7), st.integers(1, 7),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.data())
    def test_slope_is_where_bit_for_bit(self, lead, rows, n, alpha, data):
        shape = (*lead, rows, n)
        mask = np.array(data.draw(st.lists(
            st.booleans(), min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape))))).reshape(shape)
        got, want = _slope(mask, alpha), np.where(mask, 1.0, alpha)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mask_lead,x_lead", SITE_SHAPES)
    def test_keep_carries_every_special_value(self, mask_lead, x_lead):
        # each special value under a True and a False mask entry: a plain
        # x * mask gives -0.0 for -0.0 and NaN for inf where the mask is 0
        x = np.broadcast_to(_floats(SPECIAL_BITS, -1),
                            (*x_lead, 2, len(SPECIAL_BITS))).copy()
        mask = np.zeros((*mask_lead, 2, len(SPECIAL_BITS)), dtype=bool)
        mask[..., 0, :] = True
        if mask_lead and x_lead:
            mask[1] = ~mask[1]
        assert _keep(mask, x).tobytes() == np.where(mask, x, 0.0).tobytes()
