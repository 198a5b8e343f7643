"""A fixed reference task that measures how fast the host runs right now.

The benchmark runs on hosts shared with other tenants, whose speed
drifts by tens of percent from one run to the next.  CPU time does not
hide that drift: a core slowed by its neighbours shows as more CPU
time.  So the benchmark times this task between its operations, and
reports times at a nominal host speed::

    scaled = measured * NOMINAL_MS / median(reference task ms)

The task uses only the standard library and ``cryptography``, never the
program, so no change to the program changes it.  Its mix follows the
program's profile: XML parse and serialisation, a pure-Python
canonicalisation walk, SHA-256, base64, and RSA-1024 sign and verify.

    python3 perfbench/hostspeed.py      # prints reference task times
"""

from __future__ import annotations

import base64
import bisect
import gc
import hashlib
import random
import statistics
import time
import xml.etree.ElementTree as ET

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa

#: Reference task time, in ms, of the nominal host (about what the
#: task takes on one 2 GHz x86_64 core with Python 3.11).
NOMINAL_MS = 2.5

#: Records in the task's XML document, about 70 KB: the program's
#: documents are 27 to 200 KB, and a task on a much smaller document
#: (7 KB, in the cache) slowed less than the program when neighbours
#: slowed the host (by 1.64x where audits slowed by 1.83x).
RECORDS = 60

#: Verifies per sign in the task (the RSA share of its time, about a
#: tenth; the program spends a sixth of a hop and an eighth of an audit
#: in RSA).
VERIFIES = 6


def _document(rng: random.Random) -> bytes:
    """A fixed XML document of RECORDS records."""
    root = ET.Element("Document", {"Id": "ref", "Version": "1"})
    for i in range(RECORDS):
        record = ET.SubElement(root, "Record", {
            "Id": f"r{i}", "Owner": f"p{rng.randrange(6)}@example",
            "Iteration": str(rng.randrange(4))})
        for name in ("Value", "Digest", "Signature", "Note"):
            child = ET.SubElement(record, name, {"Algorithm": name.lower()})
            child.text = "".join(rng.choices("abcdefghijklmnop0123456789+/",
                                             k=rng.randint(96, 384)))
    return ET.tostring(root)


def _canonical(element, out: list) -> None:
    """Pure-Python canonical walk: sorted attributes, escaped text."""
    out.append("<" + element.tag)
    for key in sorted(element.attrib):
        value = element.attrib[key].replace("&", "&amp;").replace('"', "&quot;")
        out.append(f' {key}="{value}"')
    out.append(">")
    if element.text:
        out.append(element.text.replace("&", "&amp;").replace("<", "&lt;"))
    for child in element:
        _canonical(child, out)
        if child.tail:
            out.append(child.tail)
    out.append(f"</{element.tag}>")


class ReferenceTask:
    """The task and its inputs, built once per process."""

    #: Untimed runs at construction (first calls are slow).
    WARM_RUNS = 20

    def __init__(self) -> None:
        self.blob = _document(random.Random(20120901))
        self.key = rsa.generate_private_key(public_exponent=65537,
                                            key_size=1024)
        self.public = self.key.public_key()
        for _ in range(self.WARM_RUNS):
            self.run_once()

    def run_once(self) -> None:
        root = ET.fromstring(self.blob)
        pieces: list[str] = []
        _canonical(root, pieces)
        text = "".join(pieces).encode()
        digest = hashlib.sha256(text).digest()
        encoded = base64.b64encode(text)
        if base64.b64decode(encoded) != text:
            raise AssertionError("reference task: base64 round trip")
        root.set("Digest", base64.b64encode(digest).decode())
        message = ET.tostring(root)
        pad, alg = padding.PKCS1v15(), hashes.SHA256()
        signature = self.key.sign(message, pad, alg)
        for _ in range(VERIFIES):
            self.public.verify(signature, message, pad, alg)

    def sample(self, clock) -> float:
        """Time one run of the task with *clock*, in ms.  Cyclic GC is
        off meanwhile: a collection would be charged the program's
        garbage."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            began = clock()
            self.run_once()
            return 1e3 * (clock() - began)
        finally:
            if was_enabled:
                gc.enable()

    def samples(self, clock, runs: int) -> list[float]:
        return [self.sample(clock) for _ in range(runs)]


class SpeedTrace:
    """Reference samples taken along one timed phase.

    The host's speed changes within a run (states lasting about a
    second were seen), so each quantity is scaled by the samples nearest
    to it in time, not by one figure for the whole run.
    """

    #: Samples on each side of a time that set the speed there.  One
    #: (the samples just before and just after an operation) tracks a
    #: change of state best: over one minute of audits cut in eight
    #: parts, sampled every 50 ms, the quartile spread of the parts'
    #: 90th percentiles was 4.6% with one, 5.8% with two and 7.9% with
    #: three.
    SIDE = 1

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ms: list[float] = []

    def add(self, at: float, ms: float) -> None:
        self.at.append(at)
        self.ms.append(ms)

    def slowness(self) -> float:
        """Median slowness over the whole phase, for the record."""
        return statistics.median(self.ms) / NOMINAL_MS

    def factor_at(self, at: float) -> float:
        """Host slowness at phase time *at* (1 = nominal)."""
        k = bisect.bisect(self.at, at)
        near = self.ms[max(0, k - self.SIDE):k + self.SIDE]
        return statistics.median(near) / NOMINAL_MS

    def scale(self, at: float, value: float) -> float:
        """A time measured ending at *at*, at nominal host speed."""
        return value / self.factor_at(at)

    def nominal(self, start: float, end: float) -> float:
        """Seconds from *start* to *end*, at nominal host speed."""
        edges = [start, *(t for t in self.at if start < t < end), end]
        return sum((b - a) / self.factor_at((a + b) / 2)
                   for a, b in zip(edges, edges[1:]))


if __name__ == "__main__":
    task = ReferenceTask()
    for _ in range(10):
        samples = task.samples(time.process_time, 100)
        print(f"reference task: median {statistics.median(samples):.3f} ms, "
              f"quartiles {statistics.quantiles(samples, n=4)}")
