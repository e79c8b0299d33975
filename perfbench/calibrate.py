"""A fixed piece of work that uses no tlwaves code: the benchmark's yardstick for the host's speed.

run.py starts it as a cold process right before each operation.  It does
what the tlwaves commands spend their time on, in fixed amounts: interpreter
start-up, importing numpy and scipy.interpolate, complex FFTs of length
16384 with dot products of that length (which numpy's BLAS spreads over two
threads, as in the solver), a pure-Python floating-point loop and a cubic
spline.  On a shared host the speed of all of these drifts together by tens
of percent over minutes; dividing an operation's time by the yardstick's
time next to it takes most of that drift out.  No change to the program can change
this file's cost.
"""

import numpy as np
from scipy.interpolate import CubicSpline


def main() -> None:
    x = np.linspace(0.0, 1.0, 16384)
    a = np.exp(-((x - 0.5) / 0.05) ** 2).astype(complex)
    for _ in range(120):  # a Petviashvili-like iteration: transforms and long dot products
        a = np.fft.ifft(np.fft.fft(a) * 0.999)
        re, im = a.real.copy(), a.imag.copy()
        for _ in range(4):
            float(re @ re + im @ re)
    y, h = 1.0, 1e-5
    for _ in range(60000):  # RK4 on y' = -y
        k1 = -y
        k2 = -(y + 0.5 * h * k1)
        k3 = -(y + 0.5 * h * k2)
        k4 = -(y + h * k3)
        y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    CubicSpline(x[::8], a.real[::8])(x)
    if not (np.isfinite(a).all() and 0.0 < y < 1.0):
        raise SystemExit("calibrate: wrong result")


if __name__ == "__main__":
    main()
