"""numpy's np.random.default_rng(seed).binomial(n, p) in pure Python, bit for bit.

simulate.simulate_population imports this module on its first call
when numpy is not loaded, so a `simulate` process starts without
numpy. Each step follows numpy's: SeedSequence's hash of the seed into
a 128-bit PCG64 state and increment, PCG64's step and XSL-RR output,
next_double as the top 53 bits of a draw over 2**53, and
random_binomial, which draws by inversion when min(p, 1 - p)·n is at
most 30, by BTPE otherwise, and as n - X for p > 0.5. Integer
arithmetic that numpy does in int64 wraps as it does there (_int64);
every other operation is the same IEEE double operation in the same
order, with the same libm log, log1p and exp.
"""

from __future__ import annotations

import math

_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645


def _int64(value: int) -> int:
    """value wrapped to a signed 64-bit integer, as numpy's int64 arithmetic leaves it."""
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, np.uint64) for a seed in [0, 2**64)."""
    entropy = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    # An entropy of at most two words pads the pool with zeros and leaves no words over.
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    # Little-endian pairs of 32-bit words make the 64-bit ones.
    return [words[i] | words[i + 1] << 32 for i in range(0, len(words), 2)]


class Generator:
    """What np.random.default_rng(seed) makes for a seed in [0, 2**64): PCG64 with numpy's binomial sampler."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        high, low, inc_high, inc_low = _seed_words(seed)
        # pcg64_set_seed: an odd increment; a step from 0, the seed added, another step.
        self._inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        self._state = 0
        self.next64()
        self._state = (self._state + (high << 64 | low)) & _MASK128
        self.next64()

    def next64(self) -> int:
        """Step the state, then return its XSL-RR output: the xor of its halves rotated right by its top 6 bits."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        value = (state >> 64 ^ state) & _MASK64
        rotation = state >> 122
        return (value >> rotation | value << (64 - rotation)) & _MASK64

    def next_double(self) -> float:
        """The top 53 bits of the next draw over 2**53, a float in [0, 1)."""
        return (self.next64() >> 11) * 2.0**-53

    def binomial(self, n: int, p: float) -> int:
        """A draw from Binomial(n, p), for n in [0, 2**63) and p in [0, 1], as numpy's Generator gives it."""
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            return self._inversion(n, p) if p * n <= 30.0 else self._btpe(n, p)
        q = 1.0 - p
        return n - (self._inversion(n, q) if q * n <= 30.0 else self._btpe(n, q))

    def _inversion(self, n: int, p: float) -> int:
        """numpy's random_binomial_inversion: walk the pmf from 0, restarting past a bound."""
        q = 1.0 - p
        qn = math.exp(n * math.log1p(-p))
        np_ = n * p
        bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
        x = 0
        px = qn
        u = self.next_double()
        while u > px:
            x += 1
            if x > bound:
                x = 0
                px = qn
                u = self.next_double()
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        return x

    def _btpe(self, n: int, p: float) -> int:
        """numpy's random_binomial_btpe (Kachitvichyanukul and Schmeiser) for p <= 0.5."""
        r = p
        q = 1.0 - r
        fm = n * r + r
        m = math.floor(fm)
        p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl = xm - p1
        xr = xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * r)
        laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        lamr = a * (1.0 + a / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4 = p3 + c / lamr
        nrq = n * r * q
        while True:
            u = self.next_double() * p4
            v = self.next_double()
            if u <= p1:  # the triangle: accepted outright
                return math.floor(xm - p1 * v + u)
            if u <= p2:  # the parallelograms
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = math.floor(x)
            elif u <= p3:  # the left exponential tail; numpy rejects v == 0
                if v == 0.0:
                    continue
                y = math.floor(xl + math.log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:  # the right exponential tail
                if v == 0.0:
                    continue
                y = math.floor(xr - math.log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr
            k = abs(y - m)
            if not (k > 20 and k < nrq / 2.0 - 1):
                # The pmf ratio f(y)/f(m), evaluated as a product.
                s = r / q
                a = s * _int64(n + 1)
                f = 1.0
                if m < y:
                    for i in range(m + 1, y + 1):
                        f *= a / i - s
                elif m > y:
                    for i in range(y + 1, m + 1):
                        f /= a / i - s
                if v > f:
                    continue
                return y
            # Squeeze on log(v), then the Stirling-series bound.
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = _int64(-k * k) / (2 * nrq)
            big_a = math.log(v) if v > 0.0 else -math.inf
            if big_a < t - rho:
                return y
            if big_a > t + rho:
                continue
            x1 = y + 1.0
            f1 = m + 1.0
            z = float(n) + 1 - m
            w = float(n) - y + 1
            x2 = x1 * x1
            f2 = f1 * f1
            z2 = z * z
            w2 = w * w
            bound = (
                xm * math.log(f1 / x1)
                + (n - m + 0.5) * math.log(z / w)
                + (y - m) * math.log(w * r / (x1 * q))
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / f2) / f2) / f2) / f2) / f1 / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / z2) / z2) / z2) / z2) / z / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x1 / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / w2) / w2) / w2) / w2) / w / 166320.0
            )
            if big_a > bound:
                continue
            return y
