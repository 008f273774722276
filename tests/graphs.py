"""The one graph builder the tests share."""

from lnbalance.model import Channel, NetworkGraph


def make_graph(specs, ids=None):
    """specs: (node_a, node_b, capacity, balance_a[, base_fee[, fee_rate]]), inserted in order.

    The base fee defaults to 1000 msat and the fee rate to 1 ppm.  Channel
    i takes id ids[i], or i when `ids` is None.
    """
    channels = []
    for i, spec in enumerate(specs):
        a, b, cap, bal = spec[:4]
        base = spec[4] if len(spec) > 4 else 1000
        rate = spec[5] if len(spec) > 5 else 1
        channels.append(Channel(i if ids is None else ids[i], a, b, cap, bal, cap - bal, base, rate))
    return NetworkGraph(channels)
