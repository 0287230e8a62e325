"""Figure 3 scenario: zoom-in query processing over a prior result.

Reproduces both commands of Figure 3 against a refute/approve classifier
and a snippet instance:

* retrieve the *refuting* annotations on the tuples of a previous result
  (``ON NaiveBayesClass INDEX 1`` — index 1 is the "refute" label);
* retrieve the complete article attached to one tuple
  (``ON TextSummary INDEX 2``).

Also shows the result cache at work: the second zoom-in against the same
QID is a cache hit.
"""

from repro import InsightNotes
from repro.gate.render import render_result, render_zoomin


def main() -> None:
    notes = InsightNotes()
    notes.create_table("T", ["C1", "C2", "C3"])
    r1 = notes.insert("T", ("x", "y", 5))
    r2 = notes.insert("T", ("x", "y", 10))

    notes.define_classifier(
        "NaiveBayesClass",
        labels=["refute", "approve"],
        training=[
            ("value is wrong needs correction", "refute"),
            ("invalid experiment reject this entry", "refute"),
            ("needs verification before publishing", "refute"),
            ("confirmed by a second observer", "approve"),
            ("looks correct and consistent", "approve"),
            ("verified against the archive", "approve"),
        ],
    )
    notes.define_snippet("TextSummary", max_sentences=1)
    notes.link("NaiveBayesClass", "T")
    notes.link("TextSummary", "T")

    # Figure 3's annotations: one refuting note on r1, two on r2, several
    # approvals, plus two documents on r1.
    notes.add_annotation("value 5 is wrong", table="T", row_id=r1)
    notes.add_annotation("needs verification", table="T", row_id=r2)
    notes.add_annotation("invalid experiment", table="T", row_id=r2)
    for _ in range(6):
        notes.add_annotation("confirmed by a second observer looks correct",
                             table="T", row_id=r1)
    notes.add_annotation(
        "Experiment E measured the value repeatedly. The setup is described "
        "in the appendix. Results were stable across trials.",
        table="T", row_id=r1, document=True, title="Experiment E notes",
    )
    notes.add_annotation(
        "This Wikipedia article covers the measured quantity. It summarizes "
        "the standard methodology. See also the references section.",
        table="T", row_id=r1, document=True, title="Wikipedia article",
    )

    result = notes.query("SELECT C1, C2, C3 FROM T")
    print(render_result(result))
    print()

    # Figure 3(a): the refuting annotations on r1 and r2.
    zoom_a = notes.zoomin(
        f"ZOOMIN REFERENCE QID = {result.qid} WHERE C1 = 'x' "
        f"ON NaiveBayesClass INDEX 1"
    )
    print(render_zoomin(zoom_a))
    print()

    # Figure 3(b): the complete Wikipedia article attached to r1.
    zoom_b = notes.zoomin(
        f"ZOOMIN REFERENCE QID = {result.qid} WHERE C3 = 5 "
        f"ON TextSummary INDEX 2"
    )
    print(render_zoomin(zoom_b))
    full_article = zoom_b.matches[0].annotations[0]
    print()
    print("Full article body retrieved by the zoom-in:")
    print(" ", full_article.text)
    print()
    counters = notes.cache.counters
    print(f"cache stats: {counters.memory_hits + counters.disk_hits} hits, "
          f"{counters.misses} misses")
    notes.close()


if __name__ == "__main__":
    main()
