"""Integration: the concurrent-query claims (``repro.core.experiments.claims``)
on the quick ``multiquery`` sweep."""

from repro.core.experiments import FIGURES

(MULTIQUERY,) = FIGURES["multiquery"]


class TestMultiqueryShape:
    def test_k_queries_cost_what_their_union_costs(self, holds):
        holds("multiquery.superposition")

    def test_disjoint_psets_keep_the_solo_bandwidth(self, holds):
        holds("multiquery.isolation")

    def test_distinct_senders_pay_the_distinct_host_penalty(self, holds):
        holds("multiquery.distinct_hosts")

    def test_table_renders(self, quick):
        assert quick(MULTIQUERY).format_table().startswith(MULTIQUERY.title)
